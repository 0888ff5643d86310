package queries

import (
	"context"
	"slices"
	"testing"

	"repro/internal/envelope"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// --- threshold queries (Section 7 future work) ---

// table builds the processor's probability table or fails the test.
func table(t *testing.T, p *Processor, cfg ThresholdConfig) *ProbabilityTable {
	t.Helper()
	tab, err := p.ProbabilityTable(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// thresholdNN is the table's single-object threshold query, failing the
// test on an error.
func thresholdNN(t *testing.T, tab *ProbabilityTable, oid int64, pThresh, x float64) bool {
	t.Helper()
	ok, err := tab.ThresholdNN(oid, pThresh, x)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestProbabilitySeries(t *testing.T) {
	p := newProc(t)
	tab := table(t, p, ThresholdConfig{TimeSamples: 9, Grid: 256})
	probs, err := tab.Series(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Times) != 9 || len(probs) != 9 {
		t.Fatalf("lengths %d/%d", len(tab.Times), len(probs))
	}
	for i, v := range probs {
		if v < 0 || v > 1 {
			t.Errorf("prob[%d] = %g", i, v)
		}
	}
	// oid 1 (always nearest, distance 2 vs 3.5) should dominate: high
	// probability away from oid 4's flyby, dipping as oid 4 passes.
	if probs[0] < 0.5 {
		t.Errorf("start prob = %g, want > 0.5", probs[0])
	}
	mid := probs[4] // t = 30: oid 4 at distance 3
	if mid >= probs[0] {
		t.Errorf("flyby should reduce oid 1's probability: %g vs %g", mid, probs[0])
	}
	// Unknown oid.
	if _, err := tab.Series(777); err == nil {
		t.Error("unknown oid accepted")
	}
	// Pruned object: identically zero.
	zero, err := table(t, p, ThresholdConfig{TimeSamples: 5, Grid: 128}).Series(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range zero {
		if v != 0 {
			t.Errorf("pruned object prob = %g", v)
		}
	}
}

func TestThresholdNN(t *testing.T) {
	p := newProc(t)
	tab := table(t, p, ThresholdConfig{TimeSamples: 33, Grid: 256})
	// oid 1 holds a high NN probability most of the hour.
	if !thresholdNN(t, tab, 1, 0.5, 0.6) {
		t.Error("oid 1 should be >= 50% probable >= 60% of the time")
	}
	// Nothing holds probability ~1 all the time through the flyby (oid 1's
	// P^NN dips to ≈ 0.978 as oid 4 passes at t = 30).
	if thresholdNN(t, tab, 1, 0.99, 1.0) {
		t.Error("oid 1 should not hold 99% probability through the flyby")
	}
	// Pruned object fails any positive threshold.
	if thresholdNN(t, tab, 3, 0.01, 0.01) {
		t.Error("pruned object passed a threshold")
	}
	// Bad args.
	if _, err := tab.Above(1, -0.1); err != ErrBadFrac {
		t.Errorf("bad threshold: %v", err)
	}
	if _, err := tab.ThresholdNN(1, -0.1, 0.5); err != ErrBadFrac {
		t.Errorf("bad threshold: %v", err)
	}
	if _, err := tab.ThresholdNN(1, 0.5, 1.5); err != ErrBadFrac {
		t.Errorf("bad frac: %v", err)
	}
	if _, err := tab.ThresholdNNAll(-0.1, 0.5); err != ErrBadFrac {
		t.Errorf("bad threshold: %v", err)
	}
	if _, err := tab.ThresholdNNAll(0.5, 1.5); err != ErrBadFrac {
		t.Errorf("bad frac: %v", err)
	}
}

func TestAboveThresholdIntervals(t *testing.T) {
	p := newProc(t)
	tab := table(t, p, ThresholdConfig{TimeSamples: 65, Grid: 256})
	ivs, err := tab.Above(1, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) == 0 {
		t.Fatal("expected nonempty intervals")
	}
	// Intervals sorted, disjoint, inside the window.
	prev := p.Tb - 1
	for _, iv := range ivs {
		if iv.T0 < prev || iv.T1 <= iv.T0 || iv.T1 > p.Te+1e-9 {
			t.Fatalf("bad interval %+v", iv)
		}
		prev = iv.T1
	}
	// The flyby dip (around t=30) should be excluded at a high threshold:
	// use the paper's example numbers, 65%.
	ivs65, err := tab.Above(1, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	within := func(ivs []envelope.TimeInterval, tm float64) bool {
		for _, iv := range ivs {
			if tm >= iv.T0 && tm <= iv.T1 {
				return true
			}
		}
		return false
	}
	if within(ivs65, 30) {
		// Verify directly that the probability at 30 is indeed below 0.65
		// before failing (geometry sanity).
		probs, _ := table(t, p, ThresholdConfig{TimeSamples: 61, Grid: 256}).Series(1)
		if probs[30] < 0.65 {
			t.Error("t=30 included despite sub-threshold probability")
		}
	}
	// ThresholdNNAll consistency: every returned oid passes the
	// single-object threshold query.
	ids, err := tab.ThresholdNNAll(0.3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if !thresholdNN(t, tab, id, 0.3, 0.2) {
			t.Errorf("ThresholdNNAll returned %d which fails the single-object query", id)
		}
	}
}

func TestMaxProbability(t *testing.T) {
	p := newProc(t)
	tab := table(t, p, ThresholdConfig{TimeSamples: 17, Grid: 256})
	probs, err := tab.Series(1)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.Index(probs, slices.Max(probs))
	if prob := probs[i]; prob <= 0.5 || prob > 1 {
		t.Errorf("max prob = %g", prob)
	}
	if tAt := tab.Times[i]; tAt < p.Tb || tAt > p.Te {
		t.Errorf("argmax = %g", tAt)
	}
}

// --- all-pairs and reverse NN (Section 7 future work) ---

func TestAllPairsPossibleNN(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(21), 20)
	if err != nil {
		t.Fatal(err)
	}
	all, err := AllPairsPossibleNN(trs, 0, 60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 20 {
		t.Fatalf("entries = %d", len(all))
	}
	for qOID, ids := range all {
		// Never contains the query itself; matches a fresh processor.
		for _, id := range ids {
			if id == qOID {
				t.Fatalf("query %d contains itself", qOID)
			}
		}
		var q *trajectory.Trajectory
		for _, tr := range trs {
			if tr.OID == qOID {
				q = tr
			}
		}
		p, err := NewProcessor(trs, q, 0, 60, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		want := p.UQ31()
		if len(ids) != len(want) {
			t.Fatalf("query %d: %v vs %v", qOID, ids, want)
		}
		for i := range want {
			if ids[i] != want[i] {
				t.Fatalf("query %d: divergence at %d", qOID, i)
			}
		}
	}
}

func TestReversePossibleNN(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(22), 15)
	if err != nil {
		t.Fatal(err)
	}
	target := trs[3]
	rev, err := ReversePossibleNN(trs, target, 0, 60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against AllPairs: q is a reverse witness iff target is
	// in q's possible set.
	all, err := AllPairsPossibleNN(trs, 0, 60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wantSet := map[int64]bool{}
	for qOID, ids := range all {
		if qOID == target.OID {
			continue
		}
		for _, id := range ids {
			if id == target.OID {
				wantSet[qOID] = true
			}
		}
	}
	if len(rev) != len(wantSet) {
		t.Fatalf("reverse = %v, want set %v", rev, wantSet)
	}
	for _, id := range rev {
		if !wantSet[id] {
			t.Fatalf("unexpected reverse witness %d", id)
		}
	}
}
