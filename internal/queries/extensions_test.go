package queries

import (
	"context"
	"math"
	"testing"

	"repro/internal/envelope"
	"repro/internal/numeric"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// --- threshold queries (Section 7 future work) ---

func TestProbabilitySeries(t *testing.T) {
	p := newProc(t)
	ts, probs, err := p.ProbabilitySeries(context.Background(), 1, ThresholdConfig{TimeSamples: 9, Grid: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 9 || len(probs) != 9 {
		t.Fatalf("lengths %d/%d", len(ts), len(probs))
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
	if _, _, err := p.ProbabilitySeries(context.Background(), 777, ThresholdConfig{}); err == nil {
		t.Error("unknown oid accepted")
	}
	// Pruned object: identically zero.
	_, zero, err := p.ProbabilitySeries(context.Background(), 3, ThresholdConfig{TimeSamples: 5, Grid: 128})
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
	cfg := ThresholdConfig{TimeSamples: 33, Grid: 256}
	// oid 1 holds a high NN probability most of the hour.
	ok, err := p.ThresholdNN(context.Background(), 1, 0.5, 0.6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("oid 1 should be >= 50% probable >= 60% of the time")
	}
	// Nothing holds probability ~1 all the time through the flyby (oid 1's
	// P^NN dips to ≈ 0.978 as oid 4 passes at t = 30).
	ok, err = p.ThresholdNN(context.Background(), 1, 0.99, 1.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("oid 1 should not hold 99% probability through the flyby")
	}
	// Pruned object fails any positive threshold.
	ok, err = p.ThresholdNN(context.Background(), 3, 0.01, 0.01, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("pruned object passed a threshold")
	}
	// Bad args.
	if _, err := p.ThresholdNN(context.Background(), 1, -0.1, 0.5, cfg); err != ErrBadFrac {
		t.Errorf("bad threshold: %v", err)
	}
	if _, err := p.ThresholdNN(context.Background(), 1, 0.5, 1.5, cfg); err != ErrBadFrac {
		t.Errorf("bad frac: %v", err)
	}
}

func TestAboveThresholdIntervals(t *testing.T) {
	p := newProc(t)
	cfg := ThresholdConfig{TimeSamples: 65, Grid: 256}
	ivs, err := p.AboveThresholdIntervals(context.Background(), 1, 0.6, cfg)
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
	ivs65, err := p.AboveThresholdIntervals(context.Background(), 1, 0.65, cfg)
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
		_, probs, _ := p.ProbabilitySeries(context.Background(), 1, ThresholdConfig{TimeSamples: 61, Grid: 256})
		if probs[30] < 0.65 {
			t.Error("t=30 included despite sub-threshold probability")
		}
	}
	// ThresholdNNAll consistency: every returned oid passes ThresholdNN.
	ids, err := p.ThresholdNNAll(context.Background(), 0.3, 0.2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		ok, err := p.ThresholdNN(context.Background(), id, 0.3, 0.2, cfg)
		if err != nil || !ok {
			t.Errorf("ThresholdNNAll returned %d which fails ThresholdNN (%v)", id, err)
		}
	}
}

func TestMaxProbability(t *testing.T) {
	p := newProc(t)
	tAt, prob, err := p.MaxProbability(context.Background(), 1, ThresholdConfig{TimeSamples: 17, Grid: 256})
	if err != nil {
		t.Fatal(err)
	}
	if prob <= 0.5 || prob > 1 {
		t.Errorf("max prob = %g", prob)
	}
	if tAt < p.Tb || tAt > p.Te {
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
	// Intervals variant: nonempty interval lists for exactly the witnesses.
	ivs, err := ReversePossibleNNIntervals(trs, target, 0, 60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != len(rev) {
		t.Fatalf("interval map size %d vs %d", len(ivs), len(rev))
	}
	for id, list := range ivs {
		if len(list) == 0 {
			t.Fatalf("witness %d has empty intervals", id)
		}
	}
}

func TestMutualPossibleNNPairs(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(23), 12)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := MutualPossibleNNPairs(trs, 0, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	all, err := AllPairsPossibleNN(trs, 0, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	inSet := func(ids []int64, want int64) bool {
		for _, id := range ids {
			if id == want {
				return true
			}
		}
		return false
	}
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		if a >= b {
			t.Fatalf("pair not ordered: %v", pr)
		}
		if !inSet(all[a], b) || !inSet(all[b], a) {
			t.Fatalf("pair %v not mutual", pr)
		}
	}
	// Completeness: every mutual relation appears.
	count := 0
	for aOID, ids := range all {
		for _, b := range ids {
			if aOID < b && inSet(all[b], aOID) {
				count++
			}
		}
	}
	if count != len(pairs) {
		t.Fatalf("pairs = %d, want %d", len(pairs), count)
	}
}

// --- heterogeneous radii (Section 7 future work) ---

// TestHeteroMatchesHomogeneous: with all radii equal to r, the hetero
// processor's intervals equal the homogeneous 4r-zone intervals.
func TestHeteroMatchesHomogeneous(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(31), 25)
	if err != nil {
		t.Fatal(err)
	}
	q := trs[0]
	const r = 0.5
	radii := map[int64]float64{}
	for _, tr := range trs {
		radii[tr.OID] = r
	}
	hp, err := NewHeteroProcessor(trs, q, 0, 60, radii)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcessor(trs, q, 0, 60, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs[1:] {
		want, err := p.PossibleNNIntervals(tr.OID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hp.PossibleNNIntervals(tr.OID)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("oid %d: %v vs %v", tr.OID, got, want)
		}
		for i := range want {
			if math.Abs(got[i].T0-want[i].T0) > 1e-5 || math.Abs(got[i].T1-want[i].T1) > 1e-5 {
				t.Fatalf("oid %d interval %d: %+v vs %+v", tr.OID, i, got[i], want[i])
			}
		}
	}
	// UQ31 agreement.
	gotIDs, err := hp.UQ31()
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := p.UQ31()
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("UQ31: %v vs %v", gotIDs, wantIDs)
	}
}

// TestHeteroRadiiSemantics: a larger radius widens an object's possible
// window; an object with a huge radius is always possible.
func TestHeteroRadiiSemantics(t *testing.T) {
	trs, q := staticScene(t)
	radii := map[int64]float64{100: 0.5, 1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5}
	hp, err := NewHeteroProcessor(trs, q, 0, 60, radii)
	if err != nil {
		t.Fatal(err)
	}
	base, err := hp.PossibleNNIntervals(4)
	if err != nil {
		t.Fatal(err)
	}
	// Grow oid 4's radius: its window must grow.
	radii[4] = 1.5
	hp2, err := NewHeteroProcessor(trs, q, 0, 60, radii)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := hp2.PossibleNNIntervals(4)
	if err != nil {
		t.Fatal(err)
	}
	if envelope.TotalLength(grown) <= envelope.TotalLength(base) {
		t.Errorf("larger radius should widen window: %g vs %g",
			envelope.TotalLength(grown), envelope.TotalLength(base))
	}
	// Enormous radius for the far object: always possible.
	radii[3] = 10
	hp3, err := NewHeteroProcessor(trs, q, 0, 60, radii)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := hp3.UQ12(3); !ok {
		t.Error("object with huge radius should always be possible")
	}
	// UQ13 variants on hetero.
	if ok, _ := hp3.UQ13(3, 0.9); !ok {
		t.Error("UQ13 should hold for huge radius")
	}
	if _, err := hp3.UQ13(3, 2); err != ErrBadFrac {
		t.Errorf("bad frac: %v", err)
	}
}

func TestHeteroErrors(t *testing.T) {
	trs, q := staticScene(t)
	// Missing query radius.
	if _, err := NewHeteroProcessor(trs, q, 0, 60, map[int64]float64{1: 0.5}); err == nil {
		t.Error("missing query radius accepted")
	}
	// Missing object radius.
	radii := map[int64]float64{100: 0.5, 1: 0.5}
	if _, err := NewHeteroProcessor(trs, q, 0, 60, radii); err == nil {
		t.Error("missing object radius accepted")
	}
	// Nonpositive radius.
	radii = map[int64]float64{100: 0.5, 1: 0, 2: 0.5, 3: 0.5, 4: 0.5}
	if _, err := NewHeteroProcessor(trs, q, 0, 60, radii); err == nil {
		t.Error("zero radius accepted")
	}
	// Unknown oid query.
	full := map[int64]float64{100: 0.5, 1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5}
	hp, err := NewHeteroProcessor(trs, q, 0, 60, full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hp.PossibleNNIntervals(777); err == nil {
		t.Error("unknown oid accepted")
	}
	if _, err := hp.UQ11(777); err == nil {
		t.Error("unknown oid in UQ11 accepted")
	}
}

// TestHeteroAgainstSampling: membership intervals agree with dense
// sampling of the defining inequality.
func TestHeteroAgainstSampling(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(41), 15)
	if err != nil {
		t.Fatal(err)
	}
	q := trs[0]
	radii := map[int64]float64{}
	for i, tr := range trs {
		radii[tr.OID] = 0.2 + 0.1*float64(i%5)
	}
	hp, err := NewHeteroProcessor(trs, q, 0, 60, radii)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs[1:6] {
		ivs, err := hp.PossibleNNIntervals(tr.OID)
		if err != nil {
			t.Fatal(err)
		}
		inside := func(tm float64) bool {
			for _, iv := range ivs {
				if tm >= iv.T0-1e-6 && tm <= iv.T1+1e-6 {
					return true
				}
			}
			return false
		}
		for _, tm := range numeric.Linspace(0.01, 59.99, 401) {
			m := hp.margin(tr.OID, tm)
			if (m <= 0) != inside(tm) && math.Abs(m) > 1e-4 {
				t.Fatalf("oid %d t=%g: margin %g vs interval %v", tr.OID, tm, m, inside(tm))
			}
		}
	}
}
