package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"distme/internal/obs"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile. A p90 over fewer than 100 samples rests on a handful of
// outliers and does not repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples in
// milliseconds. It fails when fewer than minBeyond samples lie beyond the
// rank, so an under-sampled tail is an error rather than a noisy number.
func percentile(samples []time.Duration, p float64) (float64, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile: p=%v over %d samples", p, n)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile: p%.0f over %d samples leaves %d beyond it, need %d", 100*p, n, beyond, minBeyond)
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return ms(sorted[rank-1]), nil
}

// minOpsFor is the smallest sample count percentile accepts at p.
func minOpsFor(p float64) int {
	n := minBeyond
	for percentileRank(p, n)+minBeyond > n {
		n++
	}
	return n
}

func percentileRank(p float64, n int) int { return int(math.Ceil(p * float64(n))) }

// medianFloat is the median of xs (the mean of the middle pair for even n).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mb = 1 << 20

// perOp divides a counter's growth over a phase by the ops in it.
func perOp(after, before int64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(after-before) / float64(ops)
}

// dataBytes is the driver's socket traffic with the failure detector's
// pings taken out: heartbeats share the counted connection with data, so
// without the subtraction bytes per op would fall whenever ops got faster.
func dataBytes(wire, heartbeats int64, perPing float64) int64 {
	return wire - int64(math.Round(float64(heartbeats)*perPing))
}

// pingBytes is the per-heartbeat socket cost measured over an idle window.
func pingBytes(wireBefore, wireAfter, beatsBefore, beatsAfter int64) (float64, error) {
	beats := beatsAfter - beatsBefore
	if beats <= 0 {
		return 0, fmt.Errorf("no heartbeats in the idle window")
	}
	return float64(wireAfter-wireBefore) / float64(beats), nil
}

// selfTimes sums each span name's self time: its duration minus the union
// of its children's intervals (clipped to the span), since concurrent
// children overlap and must not be subtracted twice. Device spans run on
// the GPU simulator's virtual clock, so they are neither counted nor
// subtracted.
func selfTimes(spans []obs.SpanData) map[string]time.Duration {
	children := map[obs.SpanID][]obs.SpanData{}
	for _, s := range spans {
		if s.Kind != obs.KindDevice && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Kind == obs.KindDevice {
			continue
		}
		out[s.Name] += s.Duration() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// [start, end].
func covered(start, end time.Time, kids []obs.SpanData) time.Duration {
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo.Before(start) {
			lo = start
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			total += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}
