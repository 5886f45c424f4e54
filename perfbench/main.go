// Command perfbench is the repository benchmark. It runs one workload
// against the program's public entry points and prints, as its last
// stdout line, one JSON object with the run's end-to-end metrics (or, with
// --trace 1, its per-layer metrics).
//
// Workloads:
//
//	mul-dense       one cold dense A×B per op through distnet.Driver.Execute
//	gnmf-resident   one GNMF iteration per op over resident handles (Session.Run)
//	sim-sparse-gpu  one sparse×sparse engine.Engine.Run per op with the GPU simulator
//	serve-small     an open-loop stream of mixed jobs through serve.Server
//
// Build and run from the repository root:
//
//	bash perfbench/run.sh --workload mul-dense --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload serve-small --serve-limit 250ms --seed 1 --seconds 10 --trace 0
//
// serve-small's latency limit has no default: BENCHMARK.json's command
// fixes it.
//
// Every op's result is checked bit for bit against a reference computed
// outside the timed windows; a mismatch makes the command exit non-zero.
// The benchmark's own tests run with `go test` in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run sets the program up; setup_s is the
// median, and the last setup is the one the timed phase runs on.
const setupReps = 5

// endToEnd lists the untraced run's metrics with their units, in the order
// BENCHMARK.json declares them. ok_frac is 1 − fail_frac: the share of
// attempted ops that returned a bit-identical result in time, reported as
// the complement so that the metric is never 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_ms.p50", "ms"},
	{"op_ms.p90", "ms"},
	{"comm_mb_per_op", "MB"},
	{"alloc_mb_per_op", "MB"},
	{"setup_heap_mb", "MB"},
	{"ok_frac", "1"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "mul-dense, gnmf-resident, sim-sparse-gpu or serve-small")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	serveLimit := flag.Duration("serve-limit", 0, "serve-small latency limit, required there; slower jobs count as failed")
	flag.Parse()
	if *name == "serve-small" && *serveLimit <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: serve-small needs a positive --serve-limit")
		os.Exit(2)
	}

	mk, ok := map[string]func() workload{
		"mul-dense":      func() workload { return newMulDense(*seed) },
		"gnmf-resident":  func() workload { return newGNMF(*seed) },
		"sim-sparse-gpu": func() workload { return newSimSparse(*seed) },
		"serve-small":    func() workload { return newServeSmall(*seed, *serveLimit) },
	}[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(mk, d)
	} else {
		res, err = runPlain(mk(), d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("# ops=%d failed=%d fail_frac=%g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runPlain is the untraced run: setup_s and setup_heap_mb over setupReps
// setups, then one timed phase on the last of them. setup_heap_mb is read
// before prepare: it holds the program and the inputs it was given, not
// the references and other state the checks keep.
func runPlain(w workload, d time.Duration) (*result, error) {
	base := runtime.NumGoroutine()
	var setups, heaps []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		heaps = append(heaps, float64(liveHeap())/mb)
		if rep < setupReps-1 {
			if err := leakCheck(base, w.close()); err != nil {
				return nil, err
			}
		}
	}
	if err := w.prepare(); err != nil {
		w.close()
		return nil, err
	}
	runtime.GC()
	alloc0 := totalAlloc()
	ph := w.timed(d, minOpsFor(0.9), nil)
	alloc1 := totalAlloc() - ph.allocSkipped
	ph.verify()
	if err := leakCheck(base, w.close()); err != nil {
		return nil, err
	}
	n := ph.ops()
	p50, err := percentile(ph.lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(ph.lat, 0.9)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# setup_s samples=%v\n", setups)
	fmt.Printf("# setup_heap_mb samples=%v\n", heaps)
	fmt.Printf("# op samples=%d (p90 has %d beyond it)\n", n, n-percentileRank(0.9, n))
	values := map[string]float64{
		"setup_s":         medianFloat(setups),
		"op_ms.p50":       p50,
		"op_ms.p90":       p90,
		"comm_mb_per_op":  ph.commBytes / float64(n) / mb,
		"alloc_mb_per_op": float64(alloc1-alloc0) / float64(n) / mb,
		"setup_heap_mb":   medianFloat(heaps),
		"ok_frac":         1 - float64(ph.failed)/float64(ph.attempted),
	}
	res := &result{Correct: ph.wrong == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return res, nil
}

// liveHeap is HeapAlloc after two forced GCs: the second also frees what
// sync.Pools kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// totalAlloc is the process's cumulative heap allocation.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
