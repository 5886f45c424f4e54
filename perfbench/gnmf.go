package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"distme/internal/bmat"
	"distme/internal/distnet"
	"distme/internal/matrix"
	"distme/internal/ml"
	"distme/internal/obs"
)

// gnmf-resident: one GNMF iteration per op (GNMFPipeline.Step) over
// worker-resident handles. The stores, ExecOp, the band exchange and the
// sparse×dense kernels do the work; dense GEMM does little.
//
// Every gnmfSegment iterations the factorization starts again from the
// same initial factors. On random data the factors drift into subnormal
// range as iterations pile up (after ~2000 steps an iteration is about
// three times slower), so an unbounded factorization would make the cost
// of an op depend on how many ops came before it.
const (
	gnmfN       = 2000
	gnmfM       = 1500
	gnmfBlock   = 250
	gnmfDensity = 0.01
	gnmfRank    = 8
	gnmfSeed    = 3
	gnmfSegment = 50
	gnmfWarmup  = 2 * gnmfSegment
)

type gnmf struct {
	seed         int64
	v            *bmat.BlockMatrix
	w0, h0       *bmat.BlockMatrix // the pipeline's initial factors, for the checks
	wantW, wantH *matrix.Dense     // the factors after gnmfSegment steps
	c            *tcpCluster
	sess         *distnet.Session
	pipe         *ml.GNMFPipeline[*distnet.Handle]
	steps        int // steps run on the current pipeline
	perPing      float64
	eq4          float64 // Eq.(4) resident-pipeline bytes per step
	flops        float64
}

func newGNMF(seed int64) *gnmf {
	rng := rand.New(rand.NewSource(seed))
	w := &gnmf{seed: seed, v: bmat.RandomSparse(rng, gnmfN, gnmfM, gnmfBlock, gnmfDensity)}
	var nnz int
	for _, k := range w.v.Keys() {
		nnz += w.v.Block(k.I, k.J).(*matrix.CSR).NNZ()
	}
	// Per step: Wᵀ·V and V·Hᵀ cost r·nnz multiply-adds each; the Gram
	// products Wᵀ·W, (WᵀW)·H, H·Hᵀ and W·(HHᵀ) cost r²·(n+m+m+n).
	r := float64(gnmfRank)
	w.flops = 2 * (2*r*float64(nnz) + 2*r*r*float64(gnmfN+gnmfM))
	return w
}

func (w *gnmf) setup(tr *obs.Tracer) error {
	c, err := startCluster(workers, w.seed, tr)
	if err != nil {
		return err
	}
	w.c = c
	if w.sess, err = c.driver.NewSession(context.Background()); err != nil {
		return err
	}
	if err := w.restart(); err != nil {
		return err
	}
	for i := 0; i < gnmfWarmup; i++ {
		if err := w.step(); err != nil {
			return err
		}
		if w.steps == gnmfSegment {
			if err := w.restart(); err != nil {
				return err
			}
		}
	}
	return nil
}

// restart retires the current factorization, if any, and uploads a fresh
// one: V and the initial factors.
func (w *gnmf) restart() error {
	ctx := context.Background()
	if w.pipe != nil {
		if err := w.pipe.Close(ctx); err != nil {
			return err
		}
	}
	var err error
	w.pipe, err = ml.NewGNMFPipeline[*distnet.Handle](ctx, w.sess, w.v, ml.GNMFOptions{Rank: gnmfRank, Seed: gnmfSeed})
	w.steps = 0
	return err
}

func (w *gnmf) step() error {
	w.steps++
	return w.pipe.Step(context.Background())
}

func (w *gnmf) prepare() error {
	if w.wantW == nil {
		// ml.NewGNMFPipeline draws its initial factors in this order.
		frng := rand.New(rand.NewSource(gnmfSeed))
		w.w0 = bmat.RandomDense(frng, gnmfN, gnmfRank, gnmfBlock)
		w.h0 = bmat.RandomDense(frng, gnmfRank, gnmfM, gnmfBlock)
		wantW, wantH, err := gnmfRef(w.v, w.w0, w.h0, ml.GNMFHExpr(), ml.GNMFWExpr(), gnmfSegment)
		if err != nil {
			return err
		}
		w.wantW, w.wantH = wantW.ToDense(), wantH.ToDense()
	}
	v, hw, hh := w.pipe.Handles()
	binds := map[string]*distnet.Handle{"v": v, "w": hw, "h": hh}
	_, resH, err := w.sess.Price(ml.GNMFHExpr(), binds)
	if err != nil {
		return err
	}
	_, resW, err := w.sess.Price(ml.GNMFWExpr(), binds)
	if err != nil {
		return err
	}
	w.eq4 = float64(resH + resW)
	w.perPing, err = w.c.measurePing()
	return err
}

// timed leaves each restart's factor fetch and uploads out of comm and
// alloc, so that both price one GNMF iteration, as Eq.(4) does.
func (w *gnmf) timed(d time.Duration, minOps int, sink *spanSink) *phase {
	ph := newPhase()
	before := w.c.counters()
	rec0 := w.sess.Recoveries()
	closedLoop(d, minOps, ph, nil, w.step, func() bool {
		sink.drain()
		if w.steps < gnmfSegment {
			return true
		}
		from, alloc0 := w.c.counters(), totalAlloc()
		err := w.checkFactors(w.wantW, w.wantH)
		if err == nil {
			err = w.restart()
			sink.drain()
		}
		before = before.skip(from, w.c.counters())
		ph.allocSkipped += totalAlloc() - alloc0
		if err != nil {
			fmt.Println("#", err)
		}
		return err == nil
	})
	after := w.c.counters()
	n := ph.ops()
	tcpLayers(ph, before, after, w.perPing, n)
	ph.layer["distnet.retries_per_op"] += float64(w.sess.Recoveries()-rec0) / float64(n)
	ph.eq4Bytes = w.eq4 * float64(n)
	ph.flops = w.flops * float64(n)
	ph.shapes = shapesOf([2]*bmat.BlockMatrix{w.w0.Transpose(), w.v}, [2]*bmat.BlockMatrix{w.v, w.h0.Transpose()})
	// The last factorization stops mid-segment: replay its steps.
	ph.check = func() error {
		wantW, wantH, err := gnmfRef(w.v, w.w0, w.h0, ml.GNMFHExpr(), ml.GNMFWExpr(), w.steps)
		if err != nil {
			return err
		}
		return w.checkFactors(wantW.ToDense(), wantH.ToDense())
	}
	return ph
}

// checkFactors fetches the factors and compares them bit for bit with an
// in-process replay of the same steps.
func (w *gnmf) checkFactors(wantW, wantH *matrix.Dense) error {
	got, err := w.pipe.Factors(context.Background())
	if err != nil {
		return err
	}
	if !sameBits(got.W, wantW) || !sameBits(got.H, wantH) {
		return fmt.Errorf("gnmf-resident: factors after %d steps differ from the in-process replay", w.steps)
	}
	return nil
}

func (w *gnmf) close() []string {
	if w.c == nil {
		return nil
	}
	ctx := context.Background()
	if w.pipe != nil {
		w.pipe.Close(ctx)
	}
	if w.sess != nil {
		w.sess.Close(ctx)
	}
	w.c.close()
	addrs := w.c.addrs
	w.c, w.pipe, w.sess = nil, nil, nil
	return addrs
}
