package main

import (
	"fmt"
	"math/rand"
)

// workload is one traffic mix against a freshly booted cluster. Every
// round of a run boots its own cluster and replays the same operations, so
// a round's cost never depends on how much history earlier rounds left
// behind: replica state grows with the operations applied since boot.
type workload struct {
	name string

	n, f, e int
	// topology is the wan preset whose first n slots the replicas occupy,
	// with its one-way delays in real milliseconds on every replica link.
	topology string
	// mesh runs the replicas on an in-process transport.Mesh with the
	// clients pinned to slot 0 (eu-west). Otherwise replicas talk over
	// transport.TCP on loopback and the clients reach them through
	// clientLink relays, following the Ω-leader hint.
	mesh bool
	// leases auto-grants replicated leader leases (cmd/kv -leases), so GETL
	// on the holder is served from local state.
	leases bool

	keys    int  // keyspace size
	preload bool // every replica starts from a store holding every key (preloadState)
	readPct int  // GETL share of the mix, in percent; the rest are PUTs

	ops    int // timed operations per round
	warmup int // untimed operations per round, same mix, before the timer
	window int // operations in flight per session connection
}

// conns is the number of session connections the load comes over (one
// client process, nproc = 2).
const conns = 2

// valueLen is the length of every written value.
const valueLen = 16

// workloads are the benchmark's traffic mixes; BENCHMARK.json and
// README.md say why each is there.
var workloads = []workload{
	{
		name: "write-small",
		n:    3, f: 1, e: 1, topology: "geo3x5",
		keys: 1000, ops: 1000, warmup: 100, window: 16,
	},
	{
		name: "read-lease",
		n:    3, f: 1, e: 1, topology: "geo3x5", leases: true,
		keys: 1000, preload: true, readPct: 90, ops: 8000, warmup: 800, window: 16,
	},
	{
		name: "geo-commit",
		n:    5, f: 2, e: 2, topology: "spread7", mesh: true,
		keys: 1000, ops: 1000, warmup: 100, window: 8,
	},
}

// short returns the workload cut down for a test: a few hundred timed
// operations, with every output check still applied.
func (w workload) short() workload {
	w.ops, w.warmup = 200, 20
	return w
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// op is one client operation: a PUT of val, or a GETL.
type op struct {
	read bool
	key  string
	val  string
}

func keyName(i int) string { return fmt.Sprintf("k%06d", i) }

// preloadValue is the value every key holds after the preload.
func preloadValue(i int) string { return fmt.Sprintf("p%0*d", valueLen-1, i) }

// plan draws count operations of the workload's mix for each of the
// conns×window client workers from the seed. The phase letter keeps the
// warm-up's and the timed phase's values apart; within a round every
// written value is unique, so the history checker can tell writes apart.
func plan(w workload, seed int64, phase byte, count int) [][]op {
	workers := conns * w.window
	out := make([][]op, workers)
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	for wk := 0; wk < workers; wk++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*1_009 + int64(wk)))
		n := count / workers
		if wk < count%workers {
			n++
		}
		ops := make([]op, n)
		for j := range ops {
			o := op{key: keyName(rng.Intn(w.keys))}
			if rng.Intn(100) < w.readPct {
				o.read = true
			} else {
				v := []byte(fmt.Sprintf("%c%d.%d.", phase, wk, j))
				for len(v) < valueLen {
					v = append(v, letters[rng.Intn(len(letters))])
				}
				o.val = string(v)
			}
			ops[j] = o
		}
		out[wk] = ops
	}
	return out
}

func countReads(p [][]op) int {
	n := 0
	for _, ops := range p {
		for _, o := range ops {
			if o.read {
				n++
			}
		}
	}
	return n
}
