package main

import (
	"context"
	"math"
	"math/rand"
	"time"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/distnet"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// mul-dense: one cold dense fp64 A×B per op through Driver.Execute on the
// push plane.
const (
	denseN      = 512
	denseBlock  = 128
	denseWarmup = 8
	// scaleCycle is how many ops pass before an operand's bytes repeat.
	// It exceeds the worker block cache's epoch window, so every op ships
	// operands no worker holds: the op is cold.
	scaleCycle = 48
)

type mulDense struct {
	seed    int64
	a, b    *bmat.BlockMatrix // the operands as generated, scaled by 2^e and 2^-e
	e       int
	ref     *matrix.Dense
	params  core.Params
	c       *tcpCluster
	perPing float64
	next    int // op index; warm-up and timed ops share one sequence
}

func newMulDense(seed int64) *mulDense {
	rng := rand.New(rand.NewSource(seed))
	w := &mulDense{seed: seed}
	w.a = bmat.RandomDense(rng, denseN, denseN, denseBlock)
	w.b = bmat.RandomDense(rng, denseN, denseN, denseBlock)
	return w
}

// rescale multiplies m by 2^e in place. Scaling A by 2^e and B by 2^-e
// leaves every product a·b, and so C, bit-identical, while changing every
// operand byte.
func rescale(m *bmat.BlockMatrix, e int) {
	f := math.Ldexp(1, e)
	for i := 0; i < m.IB; i++ {
		for j := 0; j < m.JB; j++ {
			d := m.Block(i, j).(*matrix.Dense)
			for k := range d.Data {
				d.Data[k] *= f
			}
		}
	}
}

func (w *mulDense) setup(tr *obs.Tracer) error {
	c, err := startCluster(workers, w.seed, tr)
	if err != nil {
		return err
	}
	w.c = c
	for i := 0; i < denseWarmup; i++ {
		w.prep()
		if _, err := w.op(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

// prep rescales the operands for the next op: A by 2^e and B by 2^-e.
func (w *mulDense) prep() {
	e := w.next%scaleCycle - scaleCycle/2
	w.next++
	rescale(w.a, e-w.e)
	rescale(w.b, w.e-e)
	w.e = e
}

func (w *mulDense) op(ctx context.Context) (*bmat.BlockMatrix, error) {
	c, params, err := w.c.driver.Execute(ctx, w.a, w.b, distnet.MultiplyOptions{Transfer: core.TransferPush})
	w.params = params
	return c, err
}

func (w *mulDense) prepare() error {
	if w.ref == nil {
		// The scaling leaves every product, and so the reference, unchanged.
		w.ref = denseRef(w.a, w.b, w.params)
	}
	var err error
	w.perPing, err = w.c.measurePing()
	return err
}

func (w *mulDense) timed(d time.Duration, minOps int, sink *spanSink) *phase {
	ph := newPhase()
	before := w.c.counters()
	var meter distnet.JobMeter
	ctx := distnet.WithJobMeter(context.Background(), &meter)
	var c *bmat.BlockMatrix
	refParams := w.params
	closedLoop(d, minOps, ph, w.prep, func() (err error) {
		c, err = w.op(ctx)
		return err
	}, func() bool {
		sink.drain()
		return w.params == refParams && sameBits(c, w.ref)
	})
	after := w.c.counters()
	n := ph.ops()
	ph.shapes = shapesOf([2]*bmat.BlockMatrix{w.a, w.b})
	ph.eq4Bytes = ph.shapes[0].CostBytes(w.params) * float64(n)
	ph.flops = 2 * math.Pow(denseN, 3) * float64(n)
	tcpLayers(ph, before, after, w.perPing, n)
	ph.layer["distnet.cuboids_per_op"] = float64(meter.Stats().Cuboids) / float64(n)
	return ph
}

func (w *mulDense) close() []string {
	if w.c == nil {
		return nil
	}
	w.c.close()
	addrs := w.c.addrs
	w.c = nil
	return addrs
}
