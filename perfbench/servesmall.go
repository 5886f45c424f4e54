package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/obs"
	"distme/internal/serve"
	servemix "distme/internal/workload"
)

// serve-small: an open-loop stream of servemix.NewServeMix jobs through
// serve.Server at one fixed rate. Each job is timed from its scheduled
// send time, so a stalled generator or server shows as latency instead of
// a lower offered load.
const (
	serveBlock    = 8
	serveVariants = 2
	serveWarmups  = 100 // passes over the job pool
	// serveRate is the offered load in jobs per second. On a 2-vCPU host
	// the server met a 250 ms limit at 2500 jobs/s and missed it at 4000;
	// at 800 and 1500 jobs/s queueing amplified host stalls into p90
	// spreads above 0.3 over ten runs, so the rate sits near an eighth of
	// capacity, where p90 repeats.
	serveRate = 400
)

type serveSmall struct {
	seed  int64
	limit time.Duration
	mix   *servemix.ServeMix
	refs  map[refKey]*matrix.Dense
	seen  map[refKey]bool // (job, params) pairs setup has run
	c     *tcpCluster
	srv   *serve.Server
	ping  float64
}

type refKey struct {
	a      *bmat.BlockMatrix
	params core.Params
}

func newServeSmall(seed int64, limit time.Duration) *serveSmall {
	return &serveSmall{
		seed:  seed,
		limit: limit,
		mix:   servemix.NewServeMix(seed, serveBlock, serveVariants),
		refs:  map[refKey]*matrix.Dense{},
		seen:  map[refKey]bool{},
	}
}

func (w *serveSmall) setup(tr *obs.Tracer) error {
	c, err := startCluster(workers, w.seed, tr)
	if err != nil {
		return err
	}
	w.c = c
	if w.srv, err = serve.New(c.driver, serve.Config{Tracer: tr}); err != nil {
		return err
	}
	for i := 0; i < serveWarmups*w.mix.Len(); i++ {
		job := w.mix.Job(i)
		id, err := w.srv.Submit(serve.SubmitRequest{A: job.A, B: job.B})
		if err != nil {
			return err
		}
		_, st, err := w.srv.Result(context.Background(), id)
		w.srv.Forget(id)
		if err != nil {
			return err
		}
		if st.State != serve.StateDone {
			return fmt.Errorf("warm-up job %s: %s %s", job.Kind, st.State, st.Err)
		}
		w.seen[refKey{job.A, st.Params}] = true
	}
	return nil
}

func (w *serveSmall) prepare() error {
	for i := 0; i < w.mix.Len(); i++ {
		job := w.mix.Job(i)
		for k := range w.seen {
			if k.a == job.A && w.refs[k] == nil {
				w.refs[k] = denseRef(job.A, job.B, k.params)
			}
		}
	}
	var err error
	w.ping, err = w.c.measurePing()
	return err
}

func (w *serveSmall) timed(d time.Duration, minOps int, sink *spanSink) *phase {
	ph := newPhase()
	before := w.c.counters()
	interval := time.Second / serveRate
	var (
		mu              sync.Mutex
		wg              sync.WaitGroup
		rejected, wrong int
		slow, cuboids   int
		eq4, flops      float64
	)
	start := time.Now()
	for i := 0; ; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if sched.Sub(start) >= d && i >= minOps {
			break
		}
		if wait := time.Until(sched); wait > 0 {
			time.Sleep(wait)
		}
		ph.late = append(ph.late, time.Since(sched))
		ph.attempted++
		job := w.mix.Job(i)
		id, err := w.srv.Submit(serve.SubmitRequest{A: job.A, B: job.B})
		if err != nil {
			rejected++
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, st, err := w.srv.Result(context.Background(), id)
			lat := time.Since(sched)
			w.srv.Forget(id)
			ok := err == nil && st.State == serve.StateDone
			ref := w.refs[refKey{job.A, st.Params}]
			mu.Lock()
			defer mu.Unlock()
			ph.lat = append(ph.lat, lat)
			switch {
			case !ok || ref == nil || !sameBits(c, ref):
				wrong++
			case lat > w.limit:
				slow++
			}
			cuboids += int(st.Meter.Cuboids)
			eq4 += float64(st.PlannedBytes)
			flops += float64(2 * job.A.Rows * job.A.Cols * job.B.Cols)
		}()
	}
	wg.Wait()
	after := w.c.counters()
	n := ph.ops()
	ph.failed = rejected + wrong + slow
	ph.wrong = wrong
	if wrong > 0 || slow > 0 || rejected > 0 {
		fmt.Printf("# serve-small: %d rejected, %d wrong, %d over the %v limit\n", rejected, wrong, slow, w.limit)
	}
	tcpLayers(ph, before, after, w.ping, n)
	ph.eq4Bytes = eq4
	ph.flops = flops
	ph.layer["distnet.cuboids_per_op"] = float64(cuboids) / float64(n)
	ph.layer["serve.rejected_frac"] = float64(rejected) / float64(ph.attempted)
	for i := 0; i < w.mix.Len(); i++ {
		job := w.mix.Job(i)
		ph.shapes = append(ph.shapes, core.ShapeOf(job.A, job.B))
	}
	return ph
}

func (w *serveSmall) close() []string {
	if w.c == nil {
		return nil
	}
	if w.srv != nil {
		w.srv.Close()
	}
	w.c.close()
	addrs := w.c.addrs
	w.c, w.srv = nil, nil
	return addrs
}
