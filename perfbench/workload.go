package main

import (
	"fmt"
	"time"

	"distme/internal/core"
	"distme/internal/obs"
)

// workload is one benchmarked entry point of the program.
type workload interface {
	// setup starts the program (cluster, uploads) and runs the fixed
	// warm-up. It is what setup_s times.
	setup(tr *obs.Tracer) error
	// prepare computes what the checks need (references, the per-ping
	// byte cost) outside every timed window, once setup has run.
	prepare() error
	// timed runs the measured phase for at least d and minOps ops.
	timed(d time.Duration, minOps int, sink *spanSink) *phase
	// close tears the program down and returns the addresses it listened
	// on, for the leak check.
	close() []string
}

// phase is what one timed phase measured.
type phase struct {
	lat       []time.Duration // per op, untraced unless a sink was passed
	late      []time.Duration // open-loop send lateness (serve-small)
	attempted int
	failed    int          // wrong, errored, rejected or over the latency limit
	wrong     int          // results that differ from the reference
	commBytes float64      // data-plane bytes moved over the phase
	eq4Bytes  float64      // Eq.(4)'s prediction summed over the phase's ops
	flops     float64      // exact flops summed over the phase's ops
	shapes    []core.Shape // the ops' Eq.(4) shapes, for core.optimize_us
	// allocSkipped is heap allocated inside the phase by work that is not
	// an op (gnmf-resident's restarts); alloc_mb_per_op leaves it out.
	allocSkipped uint64
	// check, when set, verifies the phase's results once it is over and
	// outside its allocation window; a failure fails every op.
	check func() error
	layer map[string]float64
}

func newPhase() *phase { return &phase{layer: map[string]float64{}} }

func (p *phase) ops() int { return len(p.lat) }

// closedLoop runs ops back to back until d has passed and at least minOps
// ran. Only op is timed: prep (input generation) runs before the timer and
// check (result verification, span draining) after it. An op that errors
// or fails its check counts as wrong.
func closedLoop(d time.Duration, minOps int, ph *phase, prep func(), op func() error, check func() bool) {
	end := time.Now().Add(d)
	for i := 0; i < minOps || time.Now().Before(end); i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		err := op()
		ph.lat = append(ph.lat, time.Since(t0))
		ph.attempted++
		if err != nil && ph.wrong == 0 {
			fmt.Println("# first failed op:", err)
		}
		if err != nil || !check() {
			ph.failed++
			ph.wrong++
		}
	}
}

// spanSink folds traced spans into per-name self times and durations.
type spanSink struct {
	tr      *obs.Tracer
	self    map[string]time.Duration
	durs    map[string][]time.Duration
	dropped uint64
}

func newSpanSink(tr *obs.Tracer) *spanSink {
	return &spanSink{tr: tr, self: map[string]time.Duration{}, durs: map[string][]time.Duration{}}
}

// drain takes every completed span out of the tracer. Closed-loop
// workloads call it between ops, when no span is open.
func (s *spanSink) drain() {
	if s == nil {
		return
	}
	snap := s.tr.Snapshot()
	s.dropped += s.tr.Dropped()
	s.tr.Reset()
	for name, d := range selfTimes(snap.Spans) {
		s.self[name] += d
	}
	for _, sp := range snap.Spans {
		if sp.Kind != obs.KindDevice {
			s.durs[sp.Name] = append(s.durs[sp.Name], sp.Duration())
		}
	}
}

// verify runs the phase's deferred check, failing every op on a mismatch.
func (p *phase) verify() {
	if p.check == nil {
		return
	}
	if err := p.check(); err != nil {
		fmt.Println("#", err)
		p.failed, p.wrong = p.attempted, p.attempted
	}
}
