package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/engine"
	"distme/internal/matrix"
	"distme/internal/obs"
	"distme/internal/plan"
)

// sim-sparse-gpu: one sparse×sparse Engine.Run per op on the simulated
// laptop cluster with the GPU simulator on (CuboidMM optimizer, shuffle,
// aggregation, subcuboid streaming, CSRMulCSR). It opens no sockets.
//
// Every sparseSegment ops the benchmark replaces the engine. An engine
// charges every aggregation to its simulated disk for its whole lifetime,
// so a LaptopConfig engine refuses all multiplies of this size after
// about 130 of them (E.D.C., 4 GiB).
const (
	sparseN       = 1500
	sparseBlock   = 250
	sparseDensity = 0.01
	sparseWarmup  = 10
	sparseSegment = 40
)

type simSparse struct {
	a, b   *bmat.BlockMatrix
	ref    *matrix.Dense
	params core.Params
	flops  float64
	tr     *obs.Tracer
	eng    *engine.Engine
	runs   int // ops run on eng
}

func newSimSparse(seed int64) *simSparse {
	rng := rand.New(rand.NewSource(seed))
	w := &simSparse{
		a: bmat.RandomSparse(rng, sparseN, sparseN, sparseBlock, sparseDensity),
		b: bmat.RandomSparse(rng, sparseN, sparseN, sparseBlock, sparseDensity),
	}
	w.flops = sparseFlops(w.a, w.b)
	return w
}

// sparseFlops counts 2 flops for every nonzero pair a(i,k)·b(k,j).
func sparseFlops(a, b *bmat.BlockMatrix) float64 {
	colNNZ := make([]float64, a.Cols)
	rowNNZ := make([]float64, b.Rows)
	for _, key := range a.Keys() {
		csr := a.Block(key.I, key.J).(*matrix.CSR)
		for _, k := range csr.ColIdx {
			colNNZ[key.J*a.BlockSize+k]++
		}
	}
	for _, key := range b.Keys() {
		csr := b.Block(key.I, key.J).(*matrix.CSR)
		for r := 0; r < csr.RowsN; r++ {
			rowNNZ[key.I*b.BlockSize+r] += float64(csr.RowPtr[r+1] - csr.RowPtr[r])
		}
	}
	var f float64
	for k := range colNNZ {
		f += 2 * colNNZ[k] * rowNNZ[k]
	}
	return f
}

func (w *simSparse) setup(tr *obs.Tracer) error {
	w.tr = tr
	if err := w.restart(); err != nil {
		return err
	}
	for i := 0; i < sparseWarmup; i++ {
		if _, _, err := w.op(); err != nil {
			return err
		}
	}
	return nil
}

// restart replaces the engine with a fresh one.
func (w *simSparse) restart() error {
	w.close()
	eng, err := engine.New(engine.Config{Cluster: cluster.LaptopConfig(), UseGPU: true, Tracer: w.tr})
	w.eng, w.runs = eng, 0
	return err
}

func (w *simSparse) op() (*bmat.BlockMatrix, *engine.Report, error) {
	w.runs++
	c, rep, err := w.eng.Run(context.Background(), plan.Mul(plan.V("a"), plan.V("b")),
		map[string]*bmat.BlockMatrix{"a": w.a, "b": w.b})
	if err == nil {
		w.params = rep.Params
	}
	return c, rep, err
}

func (w *simSparse) prepare() error {
	if w.ref == nil {
		w.ref = blockPairRef(w.a, w.b, w.params)
	}
	return nil
}

func (w *simSparse) timed(d time.Duration, minOps int, sink *spanSink) *phase {
	ph := newPhase()
	var c *bmat.BlockMatrix
	var rep *engine.Report
	var repart, agg, pcie, retries int64
	var local time.Duration
	var iters, kernels int
	var busy, span float64
	refParams := w.params
	closedLoop(d, minOps, ph, nil, func() (err error) {
		c, rep, err = w.op()
		return err
	}, func() bool {
		sink.drain()
		repart += rep.Comm.RepartitionBytes
		agg += rep.Comm.AggregationBytes
		local += rep.Comm.LocalMultiply
		retries += rep.Elastic.TaskRetries
		pcie += rep.GPU.PCIEBytes()
		iters += rep.GPU.Iterations
		kernels += rep.GPU.Kernels
		busy += rep.GPU.KernelBusy
		span += rep.GPU.Makespan
		ok := rep.Params == refParams && sameBits(c, w.ref)
		if w.runs == sparseSegment {
			if err := w.restart(); err != nil {
				fmt.Println("#", err)
				ok = false
			}
		}
		return ok
	})
	n := ph.ops()
	ph.commBytes = float64(repart + agg)
	ph.shapes = shapesOf([2]*bmat.BlockMatrix{w.a, w.b})
	ph.eq4Bytes = ph.shapes[0].CostBytes(w.params) * float64(n)
	ph.flops = w.flops * float64(n)
	l := ph.layer
	l["engine.repartition_mb_per_op"] = perOp(repart, 0, n) / mb
	l["engine.aggregation_mb_per_op"] = perOp(agg, 0, n) / mb
	l["engine.local_multiply_ms_per_op"] = ms(local) / float64(n)
	l["cluster.retries_per_op"] = perOp(retries, 0, n)
	l["gpu.pcie_mb_per_op"] = perOp(pcie, 0, n) / mb
	l["gpu.iterations_per_op"] = perOp(int64(iters), 0, n)
	l["gpu.kernels_per_op"] = perOp(int64(kernels), 0, n)
	if span > 0 {
		l["gpu.utilization_virtual"] = busy / span
	}
	return ph
}

func (w *simSparse) close() []string {
	if w.eng != nil {
		w.eng.Close()
		w.eng = nil
	}
	return nil
}
