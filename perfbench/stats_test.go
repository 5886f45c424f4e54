package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/obs"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(n-i) * time.Millisecond // reversed: percentile must sort
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := percentile(durations(99), 0.9); err == nil {
		t.Fatal("p90 over 99 samples leaves 9 beyond it and must fail")
	}
	v, err := percentile(durations(100), 0.9)
	if err != nil || v != 90 {
		t.Fatalf("p90 over 1..100 ms = %v, %v; want 90", v, err)
	}
	if _, err := percentile(durations(19), 0.5); err == nil {
		t.Fatal("p50 over 19 samples must fail")
	}
	if v, err := percentile(durations(20), 0.5); err != nil || v != 10 {
		t.Fatalf("p50 over 1..20 ms = %v, %v; want 10", v, err)
	}
	if got := minOpsFor(0.9); got != 100 {
		t.Fatalf("minOpsFor(0.9) = %d, want 100", got)
	}
	if got := minOpsFor(0.5); got != 20 {
		t.Fatalf("minOpsFor(0.5) = %d, want 20", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	spans := []obs.SpanData{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		// Two concurrent children overlapping on [30,50]: together they
		// cover [10,70], 60ms, not 80ms.
		{ID: 2, Parent: 1, Name: "cuboid", Start: at(10), End: at(50)},
		{ID: 3, Parent: 1, Name: "cuboid", Start: at(30), End: at(70)},
		// A child running past its parent counts only inside it: 10ms.
		{ID: 4, Parent: 1, Name: "late", Start: at(90), End: at(120)},
		// Device spans run on a virtual clock: neither counted nor
		// subtracted.
		{ID: 5, Parent: 1, Name: "kernel", Kind: obs.KindDevice, Start: at(0), End: at(100)},
		{ID: 6, Parent: 2, Name: "wire.send", Start: at(10), End: at(20)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root":      30 * time.Millisecond,
		"cuboid":    30*time.Millisecond + 40*time.Millisecond,
		"late":      30 * time.Millisecond,
		"wire.send": 10 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, got[name], d)
		}
	}
}

func TestHeartbeatBytesAreSubtracted(t *testing.T) {
	per, err := pingBytes(1000, 1600, 10, 16)
	if err != nil || per != 100 {
		t.Fatalf("pingBytes = %v, %v; want 100", per, err)
	}
	if _, err := pingBytes(1000, 1600, 10, 10); err == nil {
		t.Fatal("an idle window without heartbeats must fail")
	}
	// 5000 socket bytes of which 7 heartbeats at 100 bytes each.
	if got := dataBytes(5000, 7, 100); got != 4300 {
		t.Fatalf("dataBytes = %d, want 4300", got)
	}
}

func TestPerOpDeltas(t *testing.T) {
	if got := perOp(130, 100, 3); got != 10 {
		t.Fatalf("perOp = %v, want 10", got)
	}
	if got := perOp(130, 100, 0); got != 0 {
		t.Fatalf("perOp over no ops = %v, want 0", got)
	}
	before := netCounters{wire: 1000, heartbeats: 4, peerBytes: 50, retries: 1, cacheHits: 2, cacheInsert: 2}
	after := netCounters{wire: 1000 + 4*mb + 300, heartbeats: 7, peerBytes: 50 + 2*mb, retries: 3, cacheHits: 5, cacheInsert: 4, resident: mb}
	ph := newPhase()
	tcpLayers(ph, before, after, 100, 2)
	if ph.commBytes != 6*mb {
		t.Fatalf("comm = %v, want driver 4 MiB + peer 2 MiB", ph.commBytes)
	}
	want := map[string]float64{
		"distnet.driver_mb_per_op": 2,
		"distnet.peer_mb_per_op":   1,
		"distnet.retries_per_op":   1,
		"distnet.cache_hit_ratio":  0.6,
		"distnet.resident_mb":      1,
	}
	for k, v := range want {
		if math.Abs(ph.layer[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, ph.layer[k], v)
		}
	}
}

func TestSameBitsCatchesOneULP(t *testing.T) {
	a := bmat.RandomDense(newRand(1), 10, 7, 4)
	b := bmat.RandomDense(newRand(2), 7, 9, 4)
	ref := denseRef(a, b, core.Params{P: 1, Q: 1, R: 1})
	got := bmat.FromDense(ref, 4)
	if !sameBits(got, ref) {
		t.Fatal("identical matrices compare unequal")
	}
	blk := got.Block(2, 1).(*matrix.Dense)
	blk.Data[3] = math.Nextafter(blk.Data[3], math.Inf(1))
	if sameBits(got, ref) {
		t.Fatal("a one-ULP difference went unnoticed")
	}
	// Sparse blocks compare by value, implicit zeros included.
	if sameBits(bmat.New(10, 9, 4), ref) {
		t.Fatal("an all-zero result matched a nonzero reference")
	}
	sparse := bmat.FromDense(ref, 4)
	for _, k := range sparse.Keys() {
		sparse.SetBlock(k.I, k.J, matrix.NewCSRFromDense(sparse.Block(k.I, k.J).(*matrix.Dense)))
	}
	if !sameBits(sparse, ref) {
		t.Fatal("the same values in CSR blocks compared unequal")
	}
}

func TestReferencesMatchAcrossSplits(t *testing.T) {
	// With one k block per slab, summing block pairs is the same as
	// summing each slab in ascending k, so the references must agree.
	a := bmat.RandomSparse(newRand(3), 12, 12, 4, 0.5)
	b := bmat.RandomSparse(newRand(4), 12, 12, 4, 0.5)
	p := core.Params{P: 1, Q: 1, R: 3}
	if !sameBits(bmat.FromDense(blockPairRef(a, b, p), 4), denseRef(a, b, p)) {
		t.Fatal("with one block per slab the two references must agree bit for bit")
	}
}

func TestLeakCheckFindsAnOpenListener(t *testing.T) {
	base := runtime.NumGoroutine()
	c, err := startCluster(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.close()
	if err := leakCheck(base, c.addrs); err != nil {
		t.Fatalf("clean teardown reported a leak: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := leakCheck(runtime.NumGoroutine(), []string{l.Addr().String()}); err == nil {
		t.Fatal("an open listener was not reported")
	}
}

func TestSkippedWindowIsLeftOutOfTheDeltas(t *testing.T) {
	before := netCounters{wire: 1000, heartbeats: 4, peerBytes: 50}
	from := netCounters{wire: 3000, heartbeats: 6, peerBytes: 80, resident: mb}
	to := netCounters{wire: 9200, heartbeats: 7, peerBytes: 580, resident: mb}
	after := netCounters{wire: 9200 + 2000, heartbeats: 9, peerBytes: 580 + 30, resident: 2 * mb}
	ph := newPhase()
	tcpLayers(ph, before.skip(from, to), after, 100, 1)
	// Outside the window: wire 2000+2000 with 2+2 pings, peer 30+30.
	if want := float64(4000 - 4*100 + 60); ph.commBytes != want {
		t.Fatalf("comm = %v, want %v", ph.commBytes, want)
	}
	if got := ph.layer["distnet.resident_mb"]; got != 2 {
		t.Fatalf("resident = %v MB, want the level after the phase, 2", got)
	}
}

func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark reports %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %v, benchmark reports %s %s", i, spec.EndToEnd[i], m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %v, benchmark reports %s %s", i, spec.PerLayer[i], m.name, m.unit)
		}
	}
}
