// Package kernbench packages the local-multiply kernel regression
// benchmarks behind a library API so `distme-bench -kernels` can emit a
// machine-readable trajectory file (BENCH_kernels.json). Each entry pits
// the repo's original serial kernel — preserved here verbatim — against
// the current implementation on the same operands, so a checked-in report
// proves (or disproves) every optimization on the machine that ran it.
//
// The same seed baselines appear in internal/matrix's benchmark tests for
// interactive `go test -bench` use; this package exists because the paper
// workflow wants the numbers as an artifact, not terminal scrollback.
package kernbench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// Result is one seed-vs-current comparison. End-to-end entries have no
// seed variant (the engine's old aggregation path no longer exists), so
// the seed fields are zero and Speedup is omitted.
type Result struct {
	Name      string  `json:"name"`
	SeedMs    float64 `json:"seed_ms_per_op,omitempty"`
	CurrentMs float64 `json:"current_ms_per_op"`
	Speedup   float64 `json:"speedup,omitempty"`
	SeedGF    float64 `json:"seed_gflops,omitempty"`
	CurrentGF float64 `json:"current_gflops,omitempty"`
}

// Report is the full benchmark run: environment fingerprint plus results.
type Report struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

// Run executes every kernel and end-to-end benchmark and returns the
// report. Each timing comes from testing.Benchmark, i.e. the standard
// auto-scaled b.N loop.
func Run() (*Report, error) { return RunTraced(nil) }

// RunTraced is Run with each benchmark stage recorded as a KindBench span
// on tr (nil traces nothing), so `distme-bench -kernels -trace-out` leaves
// an inspectable timeline of the run alongside the numbers.
func RunTraced(tr *obs.Tracer) (*Report, error) {
	r := &Report{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	root := tr.Start(0, "kernbench", obs.KindBench)
	defer root.End()
	stage := func(name string, f func() []Result) {
		sp := tr.Start(root.ID(), name, obs.KindBench)
		res := f()
		if sp.Active() {
			for _, b := range res {
				sp.SetAttr(b.Name, fmt.Sprintf("%.3f ms/op", b.CurrentMs))
			}
		}
		sp.End()
		r.Results = append(r.Results, res...)
	}
	stage("gemm", gemmResults)
	stage("csr-mul-dense", func() []Result { return []Result{csrMulDenseResult()} })
	stage("dense-mul-csc", func() []Result { return []Result{denseMulCSCResult()} })
	stage("csr-mul-csr", csrMulCSRResults)
	sp := tr.Start(root.ID(), "end-to-end", obs.KindBench)
	e2e, err := endToEndResults()
	if err != nil {
		if sp.Active() {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		return nil, err
	}
	if sp.Active() {
		for _, b := range e2e {
			sp.SetAttr(b.Name, fmt.Sprintf("%.3f ms/op", b.CurrentMs))
		}
	}
	sp.End()
	r.Results = append(r.Results, e2e...)
	return r, nil
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Fprint renders the report as an aligned text table.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "kernel benchmarks  %s  %s/%s  %d CPU (GOMAXPROCS=%d)  %s\n",
		r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU, r.GOMAXPROCS, r.Date)
	fmt.Fprintf(w, "%-34s %12s %12s %8s\n", "benchmark", "seed ms/op", "curr ms/op", "speedup")
	for _, res := range r.Results {
		seed, speed := "-", "-"
		if res.SeedMs > 0 {
			seed = fmt.Sprintf("%.3f", res.SeedMs)
			speed = fmt.Sprintf("%.2fx", res.Speedup)
		}
		fmt.Fprintf(w, "%-34s %12s %12.3f %8s\n", res.Name, seed, res.CurrentMs, speed)
	}
}

// compare times the two closures and assembles a Result. flops==0 skips
// the GFLOPS columns (sparse×sparse, end-to-end).
func compare(name string, flops float64, seed, current func()) Result {
	seedRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seed()
		}
	})
	curRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			current()
		}
	})
	res := Result{
		Name:      name,
		SeedMs:    msPerOp(seedRes),
		CurrentMs: msPerOp(curRes),
	}
	if res.CurrentMs > 0 {
		res.Speedup = res.SeedMs / res.CurrentMs
	}
	if flops > 0 {
		res.SeedGF = flops / (res.SeedMs * 1e6)
		res.CurrentGF = flops / (res.CurrentMs * 1e6)
	}
	return res
}

func msPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N) / 1e6
}

func gemmResults() []Result {
	var out []Result
	for _, size := range []int{128, 256, 512} {
		rng := rand.New(rand.NewSource(1))
		x := matrix.RandomDense(rng, size, size)
		y := matrix.RandomDense(rng, size, size)
		c := matrix.NewDense(size, size)
		flops := 2 * float64(size) * float64(size) * float64(size)
		out = append(out, compare(fmt.Sprintf("Gemm/%d", size), flops,
			func() { c.Zero(); seedGemm(c, x, y) },
			func() { c.Zero(); matrix.Gemm(c, x, y) }))
	}
	return out
}

func csrMulDenseResult() Result {
	rng := rand.New(rand.NewSource(2))
	x := matrix.RandomSparse(rng, 2048, 2048, 0.01)
	y := matrix.RandomDense(rng, 2048, 128)
	c := matrix.NewDense(2048, 128)
	flops := 2 * float64(x.NNZ()) * 128
	return compare("CSRMulDense/2048x2048@1%x128", flops,
		func() { c.Zero(); seedCSRMulDense(c, x, y) },
		func() { c.Zero(); matrix.CSRMulDense(c, x, y) })
}

func denseMulCSCResult() Result {
	rng := rand.New(rand.NewSource(3))
	x := matrix.RandomDense(rng, 512, 512)
	y := matrix.NewCSCFromCSR(matrix.RandomSparse(rng, 512, 512, 0.05))
	c := matrix.NewDense(512, 512)
	flops := 2 * float64(y.NNZ()) * 512
	return compare("DenseMulCSC/512x512@5%", flops,
		func() { c.Zero(); seedDenseMulCSC(c, x, y) },
		func() { c.Zero(); matrix.DenseMulCSC(c, x, y) })
}

func csrMulCSRResults() []Result {
	rng := rand.New(rand.NewSource(4))
	cases := []struct {
		name    string
		density float64
		dim     int
	}{
		{"CSRMulCSR/sparse", 0.002, 2048},
		{"CSRMulCSR/denseRows", 0.05, 512},
	}
	var out []Result
	for _, tc := range cases {
		x := matrix.RandomSparse(rng, tc.dim, tc.dim, tc.density)
		y := matrix.RandomSparse(rng, tc.dim, tc.dim, tc.density)
		out = append(out, compare(tc.name, 0,
			func() { seedCSRMulCSR(x, y) },
			func() { matrix.CSRMulCSR(x, y) }))
	}
	return out
}

// endToEndResults times the full 3-step executor (repartition → local
// multiply → aggregation) at laptop scale. There is no seed variant — the
// sequential aggregation path is the workers=1 configuration of the same
// code — so these rows track absolute trajectory only.
func endToEndResults() ([]Result, error) {
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	env := core.Env{Cluster: cl}

	rng := rand.New(rand.NewSource(5))
	da := bmat.RandomDense(rng, 512, 512, 128)
	db := bmat.RandomDense(rng, 512, 512, 128)
	sa := bmat.RandomSparse(rng, 1024, 1024, 128, 0.01)
	sb := bmat.RandomDense(rng, 1024, 256, 128)
	// Sparse×sparse: every partial stays CSR through the local multiply
	// and the R = 3 aggregation.
	ssa := bmat.RandomSparse(rng, 1500, 1500, 250, 0.01)
	ssb := bmat.RandomSparse(rng, 1500, 1500, 250, 0.01)

	bench := func(name string, a, b *bmat.BlockMatrix, params core.Params) (Result, error) {
		if _, err := core.MultiplyCuboid(a, b, params, env); err != nil {
			return Result{}, fmt.Errorf("%s: %w", name, err)
		}
		res := testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				if _, err := core.MultiplyCuboid(a, b, params, env); err != nil {
					bb.Fatal(err)
				}
			}
		})
		return Result{Name: name, CurrentMs: msPerOp(res)}, nil
	}

	var out []Result
	for _, tc := range []struct {
		name   string
		a, b   *bmat.BlockMatrix
		params core.Params
	}{
		{"MultiplyCuboid/dense512", da, db, core.Params{P: 2, Q: 2, R: 2}},
		{"MultiplyCuboid/sparse1024@1%x256", sa, sb, core.Params{P: 2, Q: 2, R: 2}},
		{"MultiplyCuboid/sparse1500@1%xsparse", ssa, ssb, core.Params{P: 2, Q: 2, R: 3}},
	} {
		res, err := bench(tc.name, tc.a, tc.b, tc.params)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// ---- seed kernels, preserved verbatim as regression baselines ----

// seedGemmBlock mirrors the production kernel's cache-tiling factor.
const seedGemmBlock = 64

// seedGemm is the seed's i-k-j loop with k-tiling and zero skip, serial.
func seedGemm(c, a, b *matrix.Dense) {
	k := a.ColsN
	n := b.ColsN
	for kk := 0; kk < k; kk += seedGemmBlock {
		kmax := kk + seedGemmBlock
		if kmax > k {
			kmax = k
		}
		for i := 0; i < a.RowsN; i++ {
			arow := a.Data[i*k : (i+1)*k]
			crow := c.Data[i*n : (i+1)*n]
			for p := kk; p < kmax; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := b.Data[p*n : (p+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}

// seedCSRMulDense is the seed's serial row loop, one AXPY per entry.
func seedCSRMulDense(c *matrix.Dense, a *matrix.CSR, b *matrix.Dense) {
	m := a.RowsN
	n := b.ColsN
	for i := 0; i < m; i++ {
		crow := c.Data[i*n : (i+1)*n]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			av := a.Val[p]
			brow := b.Data[a.ColIdx[p]*n : (a.ColIdx[p]+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// seedDenseMulCSC is the seed's column-outer loop with stride-n C writes.
func seedDenseMulCSC(c *matrix.Dense, a *matrix.Dense, b *matrix.CSC) {
	m := a.RowsN
	ka := a.ColsN
	n := b.ColsN
	for j := 0; j < n; j++ {
		for p := b.ColPtr[j]; p < b.ColPtr[j+1]; p++ {
			bk := b.RowIdx[p]
			bv := b.Val[p]
			for i := 0; i < m; i++ {
				c.Data[i*n+j] += a.Data[i*ka+bk] * bv
			}
		}
	}
}

// seedCSRMulCSR is the seed's serial Gustavson with pure insertion sort
// per row (the pre-hybrid behavior — quadratic on dense result rows).
func seedCSRMulCSR(a, b *matrix.CSR) *matrix.CSR {
	m := a.RowsN
	n := b.ColsN
	out := &matrix.CSR{RowsN: m, ColsN: n, RowPtr: make([]int, m+1)}
	acc := make([]float64, n)
	marker := make([]int, n)
	for i := range marker {
		marker[i] = -1
	}
	var cols []int
	for i := 0; i < m; i++ {
		cols = cols[:0]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k := a.ColIdx[p]
			av := a.Val[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				j := b.ColIdx[q]
				if marker[j] != i {
					marker[j] = i
					acc[j] = 0
					cols = append(cols, j)
				}
				acc[j] += av * b.Val[q]
			}
		}
		seedInsertionSort(cols)
		for _, j := range cols {
			if acc[j] != 0 {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, acc[j])
			}
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out
}

func seedInsertionSort(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
