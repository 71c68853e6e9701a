package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/linear"
	"repro/internal/smr"
	"repro/internal/wal"
)

// plans are a run's operations, drawn once from the seed and replayed by
// every round.
type plans struct {
	warm, timed [][]op
	// readBack is a GETL of every key, issued after the timed phase.
	readBack [][]op
	preload  []byte // see preloadState; nil without a preload
}

// The read-back runs readBackConns connections, each with as many GETLs in
// flight as a session runs executors (smr's sessionExecutors), so many
// GETLs share each read-barrier round.
const (
	readBackConns    = 8
	sessionExecutors = 16
)

func makePlans(w workload, seed int64) (plans, error) {
	p := plans{warm: plan(w, seed, 'w', w.warmup), timed: plan(w, seed, 't', w.ops)}
	if w.preload {
		var err error
		if p.preload, err = preloadState(w); err != nil {
			return p, err
		}
	}
	workers := readBackConns * sessionExecutors
	p.readBack = make([][]op, workers)
	for i := 0; i < w.keys; i++ {
		p.readBack[i%workers] = append(p.readBack[i%workers], op{read: true, key: keyName(i)})
	}
	return p, nil
}

// round is what one boot-load-check cycle measured.
type round struct {
	traced  bool
	setup   time.Duration // boot, lease, preload, warm-up
	elapsed time.Duration // timed phase
	lats    []time.Duration
	failed  int
	cpu     time.Duration
	allocB  uint64
	allocs  uint64
	heap    uint64             // HeapAlloc after runtime.GC at the end of the timed phase
	layers  map[string]float64 // traced rounds only
	spans   *tracer
	// violation names the first output check the round failed.
	violation string
}

func (r round) opsPerSec() float64 { return float64(len(r.lats)) / r.elapsed.Seconds() }

func (r round) cpuPerOp() float64 { return us(r.cpu) / float64(len(r.lats)) }

// runRound boots a fresh cluster under root, preloads and warms it, times
// the plan's operations, then checks the outputs. An error means the
// round could not be run at all.
func runRound(w workload, p plans, root string, traced bool) (round, error) {
	out := round{traced: traced}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	t0 := time.Now()
	c, err := boot(w, root, tr, p.preload)
	if err != nil {
		return out, fmt.Errorf("boot: %w", err)
	}
	defer c.close()
	h := linear.NewRecorder()
	proxy := 0
	if w.leases {
		// The lease must be held before the clients dial, so they settle
		// on the holder during the warm-up.
		if proxy, err = c.awaitLease(15 * time.Second); err != nil {
			return out, err
		}
	}
	if w.preload {
		recordPreload(w.keys, h)
	}
	clients, err := c.clients(conns, w.window)
	if err != nil {
		return out, err
	}
	defer closeClients(clients)
	if ph := drive(clients, p.warm, w.window, h, nil); ph.failed > 0 {
		return out, fmt.Errorf("warm-up: %d operations failed, first: %w", ph.failed, ph.firstErr)
	}
	if err := c.awaitApplied(10 * time.Second); err != nil {
		return out, err
	}
	out.setup = time.Since(t0)

	// Timed phase.
	tr.reset()
	var pinger *pinger
	if traced {
		if pinger, err = startPinger(c.server(clients[0].Proxy())); err != nil {
			return out, err
		}
	}
	k0 := c.counters()
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	ph := drive(clients, p.timed, w.window, h, tr)
	out.elapsed = time.Since(start)
	out.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	var pings []time.Duration
	if pinger != nil {
		pings = pinger.stop()
	}
	k1 := c.counters()
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	out.lats, out.failed = ph.lats, ph.failed
	out.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	out.allocs = ms1.Mallocs - ms0.Mallocs
	out.heap = ms2.HeapAlloc
	if ph.failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d timed operations failed, first: %v\n", w.name, ph.failed, ph.firstErr)
	}

	if traced {
		out.layers = layerMetrics(c, tr, k0, k1, ms0, ms1, ph, pings, countReads(p.timed))
		out.layers["snapshot.save_ms"] = ms(median(probe(3, func() { _ = c.replica(proxy).Snapshot() }, tr, "snapshot.save")))
		out.layers["wal.fsync_us_p50"] = us(walProbe(c.dirs[0], tr))
		out.layers["lease.read_us_p50"] = 0
		if w.leases {
			rng := rand.New(rand.NewSource(1))
			out.layers["lease.read_us_p50"] = us(median(probe(2000, func() {
				c.replica(proxy).LeaseRead(keyName(rng.Intn(w.keys)))
			}, nil, "")))
		}
		out.spans = tr
	}

	// Output checks.
	rb, err := c.readBack(p.readBack, h)
	if err != nil {
		return out, err
	}
	switch {
	case rb.failed > 0:
		out.violation = fmt.Sprintf("read-back: %d GETLs failed, first: %v", rb.failed, rb.firstErr)
	case len(ph.writes) > 0 && slices.Min(ph.writes) < c.floor:
		out.violation = fmt.Sprintf("a PUT completed in %v, below the %v quorum floor", slices.Min(ph.writes), c.floor)
	case w.leases && k1.leaseHits == k0.leaseHits:
		out.violation = "no GETL was served from the lease"
	}
	if out.violation == "" {
		if res := linear.CheckTimeout(h.History(), time.Minute); !res.Ok {
			out.violation = fmt.Sprintf("history not linearizable at key %q (%d ops, timed out: %t)", res.Key, res.Ops, res.TimedOut)
		}
	}
	if out.violation == "" {
		if err := c.agree(rb.read); err != nil {
			out.violation = err.Error()
		}
	}
	return out, nil
}

// server returns the server address behind a client's proxy address.
func (c *cluster) server(proxy string) string {
	for i, l := range c.links {
		if l.addr() == proxy {
			return c.addrs[i]
		}
	}
	return proxy
}

// readBack issues the final GETLs over their own connections.
func (c *cluster) readBack(p [][]op, h *linear.Recorder) (phase, error) {
	clients, err := c.clients(readBackConns, sessionExecutors)
	if err != nil {
		return phase{}, err
	}
	defer closeClients(clients)
	return drive(clients, p, sessionExecutors, h, nil), nil
}

// agree waits for every replica to hold the same store after SyncIO, then
// checks that the store holds exactly what the final GETLs saw.
func (c *cluster) agree(readBack map[string]string) error {
	for _, rt := range c.rts {
		rt.SyncIO()
	}
	var stores []map[string]string
	deadline := time.Now().Add(5 * time.Second)
	for {
		stores = stores[:0]
		same := true
		for i := range c.rts {
			blob, err := c.replica(i).SnapshotJSON()
			if err != nil {
				return fmt.Errorf("agreement: replica %d: %w", i, err)
			}
			var s struct {
				Store map[string]string `json:"store"`
			}
			if err := json.Unmarshal(blob, &s); err != nil {
				return fmt.Errorf("agreement: replica %d: %w", i, err)
			}
			stores = append(stores, s.Store)
			if i > 0 && !sameStore(stores[0], s.Store) {
				same = false
			}
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("agreement: replica stores differ after SyncIO")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sameStore(stores[0], readBack) {
		return fmt.Errorf("agreement: the replicas' store differs from the final GETLs")
	}
	return nil
}

func sameStore(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// pinger round-trips PING over its own session connection, straight to
// the server the clients use, every few milliseconds during a traced timed
// phase: the session wire's latency under load, with no consensus behind
// it and no client-link delay.
type pinger struct {
	sc   *smr.SessionClient
	quit chan struct{}
	done chan []time.Duration
}

func startPinger(addr string) (*pinger, error) {
	sc, err := smr.NewSessionClient([]string{addr}, smr.SessionOptions{Timeout: opTimeout, Depth: 1})
	if err != nil {
		return nil, err
	}
	if err := sc.Ping(); err != nil { // dial outside the timed phase
		sc.Close()
		return nil, err
	}
	p := &pinger{sc: sc, quit: make(chan struct{}), done: make(chan []time.Duration, 1)}
	go func() {
		var lats []time.Duration
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				p.done <- lats
				return
			case <-tick.C:
				t0 := time.Now()
				if err := sc.Ping(); err == nil {
					lats = append(lats, time.Since(t0))
				}
			}
		}
	}()
	return p, nil
}

func (p *pinger) stop() []time.Duration {
	close(p.quit)
	lats := <-p.done
	p.sc.Close()
	return lats
}

// probe times fn n times, each inside a span when tr is non-nil.
func probe(n int, fn func(), tr *tracer, name string) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = tr.timed(name, fn)
	}
	return out
}

// walProbe times synchronous appends to a scratch WAL next to the
// replica's own: the fsync the group commit pays, on the same filesystem.
func walProbe(dir string, tr *tracer) time.Duration {
	w, _, err := wal.Open(filepath.Join(dir, "probe"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return 0
	}
	defer w.Close()
	rec := []byte(strings.Repeat("x", 128))
	return median(probe(50, func() { _, _ = w.Append(rec) }, tr, "wal.append"))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
