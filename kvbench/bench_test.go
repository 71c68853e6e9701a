package main

import (
	"testing"
	"time"
)

// TestShortWorkloads runs every workload cut down to a few hundred
// operations: one untraced and one traced round each, with every output
// check the full benchmark applies.
func TestShortWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w.short()
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, 1, 0, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("output check failed: %s", res.violation)
			}
			if res.Failed != 0 || res.Attempted != len(res.rounds)*w.ops {
				t.Fatalf("attempted %d, failed %d over %d rounds of %d operations",
					res.Attempted, res.Failed, len(res.rounds), w.ops)
			}
			for name := range layerUnits {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			if len(res.Metrics) != len(layerUnits) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(layerUnits))
			}
			for name, m := range endToEnd(res.rounds) {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			if w.leases && res.Metrics["lease.hit_ratio"].Value == 0 {
				t.Error("no lease hits in the traced round")
			}
			if res.Metrics["geo.over_floor_ms"].Value < 0 {
				t.Error("median PUT below the quorum floor")
			}
		})
	}
}

// TestAgreementCatchesDivergence checks that the store comparison fails
// when a replica's store and the read-back disagree.
func TestAgreementCatchesDivergence(t *testing.T) {
	w := workloads[0].short()
	w.keys = 4
	c, err := boot(w, t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	clients, err := c.clients(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeClients(clients)
	want := map[string]string{}
	for i := 0; i < w.keys; i++ {
		k, v := keyName(i), preloadValue(i)
		if err := clients[0].Put(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := c.agree(want); err != nil {
		t.Fatalf("agreeing cluster: %v", err)
	}
	want[keyName(0)] = "stale"
	if err := c.agree(want); err == nil {
		t.Fatal("a read-back that differs from the stores passed the check")
	}
	delete(want, keyName(0))
	if err := c.agree(want); err == nil {
		t.Fatal("a store holding a key the read-back lacks passed the check")
	}
}

// TestPlanDeterministic checks that a seed fixes the operations.
func TestPlanDeterministic(t *testing.T) {
	w, err := findWorkload("read-lease")
	if err != nil {
		t.Fatal(err)
	}
	a, b := plan(w, 7, 't', 500), plan(w, 7, 't', 500)
	c := plan(w, 8, 't', 500)
	same := func(x, y [][]op) bool {
		for i := range x {
			for j := range x[i] {
				if x[i][j] != y[i][j] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("one seed drew two different plans")
	}
	if same(a, c) {
		t.Error("two seeds drew the same plan")
	}
	reads := countReads(a)
	if reads < 400 || reads > 490 {
		t.Errorf("%d GETLs in 500 operations at %d%%", reads, w.readPct)
	}
}

// TestRoundBudget checks that a zero budget still runs the minimum rounds.
func TestRoundBudget(t *testing.T) {
	w := workloads[0].short()
	res, err := runWorkload(w, 3, time.Duration(0), false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.rounds) != 1 || !res.Correct {
		t.Fatalf("%d rounds, correct %v (%s)", len(res.rounds), res.Correct, res.violation)
	}
}
