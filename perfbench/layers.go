package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// perLayer lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. A traced run reports all of them; a layer
// the workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"matrix.gemm_gflops", "GFLOP/s"},
	{"matrix.csr_mul_csr_ms", "ms"},
	{"matrix.csr_mul_dense_ms", "ms"},
	{"matrix.flop_per_op", "count"},
	{"core.optimize_us", "us"},
	{"core.eq4_mb_per_op", "MB"},
	{"core.comm_ratio", "1"},
	{"core.repartition_ms_per_op", "ms"},
	{"core.aggregate_ms_per_op", "ms"},
	{"core.task_ms.p50", "ms"},
	{"engine.repartition_mb_per_op", "MB"},
	{"engine.aggregation_mb_per_op", "MB"},
	{"engine.local_multiply_ms_per_op", "ms"},
	{"cluster.retries_per_op", "count"},
	{"gpu.pcie_mb_per_op", "MB"},
	{"gpu.iterations_per_op", "count"},
	{"gpu.kernels_per_op", "count"},
	{"gpu.utilization_virtual", "1"},
	{"codec.encode_mb_s", "MB/s"},
	{"codec.decode_mb_s", "MB/s"},
	{"distnet.wire_send_ms_per_op", "ms"},
	{"distnet.wire_recv_ms_per_op", "ms"},
	{"distnet.wire_decode_ms_per_op", "ms"},
	{"distnet.worker_compute_ms_per_op", "ms"},
	{"distnet.rpc_ms.p50", "ms"},
	{"distnet.dispatch_wait_ms_per_op", "ms"},
	{"distnet.driver_mb_per_op", "MB"},
	{"distnet.peer_mb_per_op", "MB"},
	{"distnet.cuboids_per_op", "count"},
	{"distnet.cache_hit_ratio", "1"},
	{"distnet.pipeline_exec_ms_per_op", "ms"},
	{"distnet.worker_exec_ms_per_op", "ms"},
	{"distnet.peer_fetch_ms_per_op", "ms"},
	{"distnet.wire_pull_ms_per_op", "ms"},
	{"distnet.pull_cache_hit_ratio", "1"},
	{"distnet.retries_per_op", "count"},
	{"distnet.local_fallbacks_per_op", "count"},
	{"distnet.pull_fallbacks_per_op", "count"},
	{"distnet.store_evictions_per_op", "count"},
	{"distnet.resident_mb", "MB"},
	{"serve.accept_us.p50", "us"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.p90", "ms"},
	{"serve.job_run_ms.p50", "ms"},
	{"serve.rejected_frac", "1"},
	{"bench.late_ms.p90", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.dropped_spans", "count"},
}

// selfSpans maps per-op self-time metrics to the span names they sum.
var selfSpans = map[string]string{
	"core.repartition_ms_per_op":       "repartition",
	"core.aggregate_ms_per_op":         "aggregate",
	"distnet.wire_send_ms_per_op":      "wire.send",
	"distnet.wire_recv_ms_per_op":      "wire.recv",
	"distnet.wire_decode_ms_per_op":    "wire.decode",
	"distnet.worker_compute_ms_per_op": "worker.compute",
	"distnet.dispatch_wait_ms_per_op":  "cuboid",
	"distnet.pipeline_exec_ms_per_op":  "pipeline.exec",
	"distnet.worker_exec_ms_per_op":    "worker.exec",
	"distnet.peer_fetch_ms_per_op":     "peer.fetch",
	"distnet.wire_pull_ms_per_op":      "wire.pull",
}

// spanQuantiles maps percentile metrics to a span name, a quantile and the
// unit scale from milliseconds.
var spanQuantiles = map[string]struct {
	span  string
	p     float64
	scale float64
}{
	"core.task_ms.p50":        {"task.multiply", 0.5, 1},
	"distnet.rpc_ms.p50":      {"rpc.multiply", 0.5, 1},
	"serve.accept_us.p50":     {"serve.accept", 0.5, 1000},
	"serve.queue_wait_ms.p50": {"serve.queue.wait", 0.5, 1},
	"serve.queue_wait_ms.p90": {"serve.queue.wait", 0.9, 1},
	"serve.job_run_ms.p50":    {"serve.job.run", 0.5, 1},
}

// runTraced measures the per-layer metrics: an untraced half-phase gives
// the reference op_ms.p50, then the same workload runs again on a program
// built with one tracer shared by the driver and the workers.
func runTraced(mk func() workload, d time.Duration) (*result, error) {
	base := runtime.NumGoroutine()
	w := mk()
	plain, err := tracedHalf(w, base, nil, d/2)
	if err != nil {
		return nil, err
	}
	// serve-small drains its spans once, after the phase: the buffer holds
	// every span of the phase.
	tr := obs.NewTracerLimit(1 << 20)
	sink := newSpanSink(tr)
	ph, err := tracedHalf(w, base, sink, d/2)
	if err != nil {
		return nil, err
	}
	if sink.dropped > 0 {
		return nil, fmt.Errorf("tracer dropped %d spans", sink.dropped)
	}
	n := float64(ph.ops())
	l := ph.layer
	for metric, span := range selfSpans {
		l[metric] = ms(sink.self[span]) / n
	}
	for metric, q := range spanQuantiles {
		// A span too rare for the percentile rule reports 0.
		if v, err := percentile(sink.durs[q.span], q.p); err == nil {
			l[metric] = v * q.scale
		}
	}
	l["matrix.flop_per_op"] = ph.flops / n
	l["core.eq4_mb_per_op"] = ph.eq4Bytes / n / mb
	if ph.eq4Bytes > 0 {
		l["core.comm_ratio"] = ph.commBytes / ph.eq4Bytes
	}
	if v, err := percentile(ph.late, 0.9); err == nil { // open loop only
		l["bench.late_ms.p90"] = v
	}
	p0, err := percentile(plain.lat, 0.5)
	if err != nil {
		return nil, err
	}
	p1, err := percentile(ph.lat, 0.5)
	if err != nil {
		return nil, err
	}
	l["obs.trace_overhead_pct"] = 100 * (p1 - p0) / p0
	l["obs.dropped_spans"] = float64(sink.dropped)
	runtime.GC()
	microLayers(l)
	l["core.optimize_us"] = optimizeMicros(ph.shapes)

	res := &result{
		Attempted: plain.attempted + ph.attempted,
		Failed:    plain.failed + ph.failed,
		Metrics:   map[string]metric{},
	}
	res.Correct = plain.wrong+ph.wrong == 0
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{l[m.name], m.unit}
	}
	return res, nil
}

func tracedHalf(w workload, base int, sink *spanSink, d time.Duration) (*phase, error) {
	var tr *obs.Tracer
	if sink != nil {
		tr = sink.tr
	}
	if err := w.setup(tr); err != nil {
		w.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := w.prepare(); err != nil {
		w.close()
		return nil, err
	}
	if tr != nil {
		tr.Reset() // setup's spans are not the timed phase's
	}
	runtime.GC()
	ph := w.timed(d, minOpsFor(0.5), sink)
	sink.drain()
	ph.verify()
	return ph, leakCheck(base, w.close())
}

// microLayers times single kernels on the workloads' own block shapes.
func microLayers(l map[string]float64) {
	rng := rand.New(rand.NewSource(1))
	a := matrix.RandomDense(rng, denseBlock, denseBlock)
	b := matrix.RandomDense(rng, denseBlock, denseBlock)
	c := matrix.NewDense(denseBlock, denseBlock)
	l["matrix.gemm_gflops"] = 2 * float64(denseBlock*denseBlock*denseBlock) / perCall(func() { matrix.Gemm(c, a, b) }).Seconds() / 1e9

	sa := matrix.RandomSparse(rng, sparseBlock, sparseBlock, sparseDensity)
	sb := matrix.RandomSparse(rng, sparseBlock, sparseBlock, sparseDensity)
	l["matrix.csr_mul_csr_ms"] = ms(perCall(func() { matrix.CSRMulCSR(sa, sb) }))

	v := matrix.RandomSparse(rng, gnmfBlock, gnmfBlock, gnmfDensity)
	ht := matrix.RandomDense(rng, gnmfBlock, gnmfRank)
	out := matrix.NewDense(gnmfBlock, gnmfRank)
	l["matrix.csr_mul_dense_ms"] = ms(perCall(func() { matrix.CSRMulDense(out, v, ht) }))

	var buf []byte
	var tag uint8
	enc := perCall(func() { buf, tag, _ = codec.AppendWire(buf[:0], a) })
	l["codec.encode_mb_s"] = float64(len(buf)) / enc.Seconds() / mb
	dec := perCall(func() { codec.Decode(tag, buf) })
	l["codec.decode_mb_s"] = float64(len(buf)) / dec.Seconds() / mb
}

// optimizeMicros times core.OptimizeWire over shapes, round robin.
func optimizeMicros(shapes []core.Shape) float64 {
	wc := core.DefaultWireCost()
	i := 0
	d := perCall(func() {
		core.OptimizeWire(shapes[i%len(shapes)], 1<<30, workers, wc)
		i++
	})
	return float64(d) / float64(time.Microsecond)
}

// perCall times f in five rounds of 40ms each and returns the median time
// per call.
func perCall(f func()) time.Duration {
	const rounds, budget = 5, 40 * time.Millisecond
	f() // warm caches and pools
	per := make([]float64, rounds)
	for r := range per {
		t0 := time.Now()
		n := 0
		for time.Since(t0) < budget {
			f()
			n++
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(medianFloat(per))
}

// shapesOf is the Eq.(4) shape list of operand pairs.
func shapesOf(pairs ...[2]*bmat.BlockMatrix) []core.Shape {
	out := make([]core.Shape, len(pairs))
	for i, p := range pairs {
		out[i] = core.ShapeOf(p[0], p[1])
	}
	return out
}
