package main

import (
	"runtime"
	"sort"
	"time"
)

// reset drops everything recorded before the timed phase (boot, preload,
// warm-up).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.dropped, t.handle = t.spans[:0], 0, t.handle[:0]
	t.epoch = time.Now()
	t.mu.Unlock()
	t.sendN.Store(0)
	t.sendNs.Store(0)
	t.recoded.Store(0)
	t.encNs.Store(0)
	t.decNs.Store(0)
}

// layerMetrics derives the per-layer metrics of a traced timed phase from
// the counter deltas, the tracer's spans and the session pings.
func layerMetrics(c *cluster, tr *tracer, k0, k1 counters, ms0, ms1 runtime.MemStats, ph phase, pings []time.Duration, reads int) map[string]float64 {
	ops := float64(len(ph.lats))
	per := func(d uint64) float64 { return float64(d) / ops }
	perK := func(d uint64) float64 { return 1000 * float64(d) / ops }
	m := map[string]float64{}

	batches := k1.batches - k0.batches
	m["batch.cmds_per_round"] = 0
	if batches > 0 {
		m["batch.cmds_per_round"] = float64(k1.cmds-k0.cmds) / float64(batches)
	}

	handle := tr.handleDurations()
	var handleSum time.Duration
	for _, d := range handle {
		handleSum += d
	}
	m["replica.msgs_in_per_op"] = float64(len(handle)) / ops
	m["replica.handle_us_p50"] = us(quantile(handle, 0.50))
	m["replica.handle_us_p99"] = us(quantile(handle, 0.99))
	m["replica.handle_us_per_op"] = us(handleSum) / ops

	sends := tr.sendN.Load()
	m["codec.encode_us_per_op"], m["codec.decode_us_per_op"] = 0, 0
	if n := tr.recoded.Load(); n > 0 {
		// Sampled mean per message, scaled to every message sent.
		m["codec.encode_us_per_op"] = float64(tr.encNs.Load()) / float64(n) / 1e3 * float64(sends) / ops
		m["codec.decode_us_per_op"] = float64(tr.decNs.Load()) / float64(n) / 1e3 * float64(sends) / ops
	}
	m["transport.sends_per_op"] = per(k1.sends - k0.sends)
	m["transport.bytes_per_op"] = per(k1.bytesSent - k0.bytesSent)
	m["transport.send_us_per_op"] = float64(tr.sendNs.Load()) / 1e3 / ops
	m["transport.drops_per_kop"] = perK(k1.drops - k0.drops)

	m["wal.fsyncs_per_op"] = per(k1.walSyncs - k0.walSyncs)
	// Appended bytes are not counted by the WAL; estimate them from the
	// mean size of the records still in live segments.
	m["wal.bytes_per_op"] = 0
	if k1.walLiveRecs > 0 {
		m["wal.bytes_per_op"] = per(k1.walRecs-k0.walRecs) * float64(k1.walLiveBytes) / float64(k1.walLiveRecs)
	}

	m["replica.open_slots_end"] = float64(k1.openSlots)
	m["replica.compact_floor_end"] = float64(k1.compactFloor)
	m["gc.cycles_per_kop"] = perK(uint64(ms1.NumGC - ms0.NumGC))
	m["gc.pause_us_per_op"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e3 / ops

	leaseReads := k1.leaseHits - k0.leaseHits + k1.leaseMisses - k0.leaseMisses
	m["lease.hit_ratio"] = 0
	if leaseReads > 0 {
		m["lease.hit_ratio"] = float64(k1.leaseHits-k0.leaseHits) / float64(leaseReads)
	}
	m["lease.barrier_rounds_per_kread"] = 0
	if reads > 0 {
		m["lease.barrier_rounds_per_kread"] = 1000 * float64(k1.readRounds-k0.readRounds) / float64(reads)
	}
	m["lease.refused_per_kop"] = perK(k1.leaseRefused - k0.leaseRefused)

	// The pinger's own frames are not the workload's.
	m["session.frames_per_op"] = float64(k1.frames-k0.frames-uint64(len(pings))) / ops
	m["session.busy_per_kop"] = perK(k1.busy - k0.busy)
	m["session.ping_us_p50"] = us(quantile(pings, 0.50))

	m["quorum.floor_ms"] = ms(c.floor)
	m["geo.over_floor_ms"] = ms(quantile(ph.writes, 0.50) - c.floor)
	return m
}

// quantile returns the q-quantile of ds (nearest rank), 0 for none.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1)+0.5)]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// medianOf returns the median of xs (mean of the middle two for even n).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := 0, len(s)-1
	for hi-lo > 1 {
		lo, hi = lo+1, hi-1
	}
	return (s[lo] + s[hi]) * 0.5
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
