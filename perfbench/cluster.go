package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"distme/internal/distnet"
	"distme/internal/obs"
)

// workers is the in-process TCP pool size of every networked workload.
const workers = 2

// tcpCluster is a driver dialed to in-process workers over loopback TCP.
type tcpCluster struct {
	addrs   []string
	workers []*distnet.Worker
	driver  *distnet.Driver
}

// startCluster listens n workers on loopback and dials a driver to them.
// Heartbeats stay on (the program's default); their bytes are measured
// and subtracted by the caller.
func startCluster(n int, seed int64, tr *obs.Tracer) (*tcpCluster, error) {
	c := &tcpCluster{}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		w, err := distnet.ServeOptions(l, distnet.WorkerOptions{Tracer: tr})
		if err != nil {
			l.Close()
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, w)
		c.addrs = append(c.addrs, l.Addr().String())
	}
	d, err := distnet.DialOptions(c.addrs, distnet.Options{JitterSeed: seed, Tracer: tr})
	if err != nil {
		c.close()
		return nil, err
	}
	c.driver = d
	return c, nil
}

func (c *tcpCluster) close() {
	if c.driver != nil {
		c.driver.Close()
	}
	for _, w := range c.workers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		w.Shutdown(ctx)
		cancel()
		w.Wait()
	}
}

// netCounters is a snapshot of every data-plane counter a TCP workload
// reports; per-op figures are differences of two snapshots.
type netCounters struct {
	wire        int64 // driver socket bytes, sent + received, pings included
	heartbeats  int64
	peerBytes   int64 // worker→worker fetch payload
	retries     int64
	fallbacks   int64
	pullFalls   int64
	pullFetches int64
	pullHits    int64
	evictions   int64
	cacheHits   int64
	cacheMisses int64
	cacheInsert int64
	resident    int64
}

func (c *tcpCluster) counters() netCounters {
	sent, recv := c.driver.WireBytes()
	ns := c.driver.NetStats()
	n := netCounters{
		wire:        sent + recv,
		heartbeats:  ns.HeartbeatsSent,
		retries:     ns.CuboidRetries,
		fallbacks:   ns.LocalFallbacks,
		pullFalls:   ns.PullFallbacks,
		pullFetches: ns.PullPeerFetches,
		pullHits:    ns.PullCacheHits,
		resident:    ns.ResidentBytes,
	}
	for _, w := range c.workers {
		st := w.StoreStats()
		cs := w.CacheStats()
		n.peerBytes += st.PeerFetchBytes
		n.evictions += st.Evictions
		n.cacheHits += cs.Hits
		n.cacheMisses += cs.Misses
		n.cacheInsert += cs.Insertions
	}
	return n
}

// skip moves a phase's starting snapshot forward by what the counters grew
// between from and to, so that the phase's deltas leave that window out.
// resident is a level, not a counter, and is not moved.
func (n netCounters) skip(from, to netCounters) netCounters {
	n.wire += to.wire - from.wire
	n.heartbeats += to.heartbeats - from.heartbeats
	n.peerBytes += to.peerBytes - from.peerBytes
	n.retries += to.retries - from.retries
	n.fallbacks += to.fallbacks - from.fallbacks
	n.pullFalls += to.pullFalls - from.pullFalls
	n.pullFetches += to.pullFetches - from.pullFetches
	n.pullHits += to.pullHits - from.pullHits
	n.evictions += to.evictions - from.evictions
	n.cacheHits += to.cacheHits - from.cacheHits
	n.cacheMisses += to.cacheMisses - from.cacheMisses
	n.cacheInsert += to.cacheInsert - from.cacheInsert
	return n
}

// measurePing waits, idle, for at least four heartbeats and returns the
// socket bytes one heartbeat costs.
func (c *tcpCluster) measurePing() (float64, error) {
	before := c.counters()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		after := c.counters()
		if after.heartbeats-before.heartbeats >= 4 {
			return pingBytes(before.wire, after.wire, before.heartbeats, after.heartbeats)
		}
	}
	return 0, fmt.Errorf("no heartbeats within 5s")
}

// leakCheck waits for the goroutine count to fall back to base and for
// every address to refuse connections, so one run's cluster cannot slow
// the next.
func leakCheck(base int, addrs []string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("goroutine leak: %d running, %d before the cluster started\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, a := range addrs {
		if conn, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			conn.Close()
			return fmt.Errorf("listener leak: %s still accepts connections", a)
		}
	}
	return nil
}

// tcpLayers fills a phase's data-plane figures from two counter snapshots:
// comm is the driver's socket bytes without pings plus worker→worker
// bytes, and the per-layer counters are per op.
func tcpLayers(ph *phase, before, after netCounters, perPing float64, ops int) {
	driver := dataBytes(after.wire-before.wire, after.heartbeats-before.heartbeats, perPing)
	peer := after.peerBytes - before.peerBytes
	ph.commBytes = float64(driver + peer)
	l := ph.layer
	l["distnet.driver_mb_per_op"] = perOp(driver, 0, ops) / mb
	l["distnet.peer_mb_per_op"] = perOp(peer, 0, ops) / mb
	hits := after.cacheHits - before.cacheHits
	lookups := hits + after.cacheMisses - before.cacheMisses + after.cacheInsert - before.cacheInsert
	if lookups > 0 {
		l["distnet.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	pullHits := after.pullHits - before.pullHits
	if pulls := pullHits + after.pullFetches - before.pullFetches; pulls > 0 {
		l["distnet.pull_cache_hit_ratio"] = float64(pullHits) / float64(pulls)
	}
	l["distnet.retries_per_op"] = perOp(after.retries, before.retries, ops)
	l["distnet.local_fallbacks_per_op"] = perOp(after.fallbacks, before.fallbacks, ops)
	l["distnet.pull_fallbacks_per_op"] = perOp(after.pullFalls, before.pullFalls, ops)
	l["distnet.store_evictions_per_op"] = perOp(after.evictions, before.evictions, ops)
	l["distnet.resident_mb"] = float64(after.resident) / mb
}
