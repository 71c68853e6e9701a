package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linear"
	"repro/internal/smr"
)

// phase is what one closed-loop phase of client operations produced.
type phase struct {
	lats     []time.Duration // completed operations, in no particular order
	writes   []time.Duration // the completed PUTs among them
	failed   int
	firstErr error
	read     map[string]string // last value each GETL saw, by key ("" and absent: not found)
}

// opSeq numbers client operations across a run, so trace spans can name
// their parent operation.
var opSeq atomic.Int64

// drive runs the plan closed-loop with one worker per list of the plan:
// worker wk issues operations one after another over connection wk/window,
// so each connection carries window operations in flight. The workers take
// their next operation from one queue that interleaves the plan's lists,
// so the phase ends when the work runs out, not when the worker whose list
// drew the most slow operations finishes.
func drive(clients []*smr.SessionClient, p [][]op, window int, h *linear.Recorder, tr *tracer) phase {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		res   = phase{read: map[string]string{}}
		lats  = make([][]time.Duration, len(p))
		puts  = make([][]time.Duration, len(p))
		total = countOps(p)
		queue = make([]op, 0, total)
		next  atomic.Int64
	)
	for j := 0; len(queue) < total; j++ {
		for _, ops := range p {
			if j < len(ops) {
				queue = append(queue, ops[j])
			}
		}
	}
	for wk := range p {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			sc := clients[wk/window]
			for {
				i := next.Add(1) - 1
				if i >= int64(len(queue)) {
					return
				}
				o := queue[i]
				id := opSeq.Add(1)
				d, val, found, err := do(sc, o, wk, h)
				if err != nil {
					mu.Lock()
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("%s %s: %w", verb(o), o.key, err)
					}
					mu.Unlock()
					continue
				}
				lats[wk] = append(lats[wk], d)
				tr.opSpan(verb(o), d, id)
				if !o.read {
					puts[wk] = append(puts[wk], d)
				} else {
					mu.Lock()
					if found {
						res.read[o.key] = val
					} else {
						delete(res.read, o.key)
					}
					mu.Unlock()
				}
			}
		}(wk)
	}
	wg.Wait()
	for wk := range lats {
		res.lats = append(res.lats, lats[wk]...)
		res.writes = append(res.writes, puts[wk]...)
	}
	return res
}

func countOps(p [][]op) int {
	n := 0
	for _, ops := range p {
		n += len(ops)
	}
	return n
}

func verb(o op) string {
	if o.read {
		return "op.getl"
	}
	return "op.put"
}

// do issues one operation and records it in the history with the outcome
// the client observed.
func do(sc *smr.SessionClient, o op, client int, h *linear.Recorder) (d time.Duration, val string, found bool, err error) {
	if o.read {
		p := h.Invoke(client, linear.KindGet, o.key, "")
		t0 := time.Now()
		val, err = sc.GetLinearizable(o.key)
		d = time.Since(t0)
		switch {
		case err == nil:
			p.Observed(val, true)
			return d, val, true, nil
		case errors.Is(err, smr.ErrNotFound):
			p.Observed("", false)
			return d, "", false, nil
		default:
			p.Ambiguous()
			return d, "", false, err
		}
	}
	p := h.Invoke(client, linear.KindPut, o.key, o.val)
	t0 := time.Now()
	err = sc.Put(o.key, o.val)
	d = time.Since(t0)
	switch {
	case err == nil:
		p.OK()
	case errors.Is(err, smr.ErrRejected):
		p.Failed()
	default:
		p.Ambiguous()
	}
	return d, "", false, err
}
