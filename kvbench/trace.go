package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/shard"
	"repro/internal/transport"
)

// tracer records spans around the calls the benchmark makes into each
// layer (client operations, the replica's inbound handler, transport
// sends, codec re-timing, probes) and keeps them in memory until the run
// writes them out. A nil *tracer records nothing and wraps nothing, so
// untraced rounds run the stack exactly as booted.
type tracer struct {
	epoch time.Time
	codec *consensus.Codec

	mu      sync.Mutex
	spans   []span
	dropped int
	handle  []time.Duration // one per inbound message

	sendN   atomic.Uint64
	sendNs  atomic.Int64
	recoded atomic.Uint64
	encNs   atomic.Int64
	decNs   atomic.Int64
}

// span is one timed call. parent is the client operation it served, or -1
// where the benchmark cannot know it (messages between replicas).
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int64
}

// maxSpans caps the spans kept per traced round; the rest are counted.
const maxSpans = 400_000

// codecSample re-times one sent message in this many through the codec.
const codecSample = 8

func newTracer() *tracer {
	codec := consensus.NewCodec()
	shard.RegisterMessages(codec)
	return &tracer{epoch: time.Now(), codec: codec}
}

func (t *tracer) add(name string, t0, t1 time.Time, parent int64) {
	t.mu.Lock()
	t.addLocked(name, t0, t1, parent)
	t.mu.Unlock()
}

func (t *tracer) addLocked(name string, t0, t1 time.Time, parent int64) {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{name, t0.Sub(t.epoch).Nanoseconds(), t1.Sub(t.epoch).Nanoseconds(), parent})
}

// opSpan records a completed client operation of duration d ending now.
func (t *tracer) opSpan(name string, d time.Duration, id int64) {
	if t == nil {
		return
	}
	t1 := time.Now()
	t.add(name, t1.Add(-d), t1, id)
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	if t != nil {
		t.add(name, t0, t1, -1)
	}
	return t1.Sub(t0)
}

// wrapHandler times every inbound message through the replica's step
// (shard mux → smr.Replica.Handle → core).
func (t *tracer) wrapHandler(h transport.Handler) transport.Handler {
	if t == nil {
		return h
	}
	return func(from consensus.ProcessID, msg consensus.Message) {
		t0 := time.Now()
		h(from, msg)
		t1 := time.Now()
		t.mu.Lock()
		t.handle = append(t.handle, t1.Sub(t0))
		t.addLocked("replica.handle", t0, t1, -1)
		t.mu.Unlock()
	}
}

// wrapTransport times every Send and re-times a sample of the sent
// messages through Codec.Encode and Decode.
func (t *tracer) wrapTransport(tr transport.Transport) transport.Transport {
	if t == nil {
		return tr
	}
	return &tracedTransport{Transport: tr, t: t}
}

type tracedTransport struct {
	transport.Transport
	t *tracer
}

func (w *tracedTransport) Send(to consensus.ProcessID, msg consensus.Message) error {
	t := w.t
	if t.sendN.Load()%codecSample == 0 {
		// Before the send: on Mesh the receiver gets msg by reference.
		t.recode(msg)
	}
	t0 := time.Now()
	err := w.Transport.Send(to, msg)
	t1 := time.Now()
	t.sendN.Add(1)
	t.sendNs.Add(t1.Sub(t0).Nanoseconds())
	t.add("transport.send", t0, t1, -1)
	return err
}

func (t *tracer) recode(msg consensus.Message) {
	t0 := time.Now()
	b, err := t.codec.Encode(msg)
	t1 := time.Now()
	if err != nil {
		return
	}
	if _, err := t.codec.Decode(b); err != nil {
		return
	}
	t2 := time.Now()
	t.recoded.Add(1)
	t.encNs.Add(t1.Sub(t0).Nanoseconds())
	t.decNs.Add(t2.Sub(t1).Nanoseconds())
	t.mu.Lock()
	t.addLocked("codec.encode", t0, t1, -1)
	t.addLocked("codec.decode", t1, t2, -1)
	t.mu.Unlock()
}

// handleDurations returns a copy of the inbound-message step times.
func (t *tracer) handleDurations() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.handle...)
}

// write saves the spans as JSON lines: name, start and end in µs since the
// round began, and the parent client operation (-1 when unknown).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintf(bw, "{\"dropped\":%d}\n", t.dropped)
	for _, s := range t.spans {
		fmt.Fprintf(bw, "[%q,%.3f,%.3f,%d]\n", s.name, float64(s.start)/1e3, float64(s.end)/1e3, s.parent)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
