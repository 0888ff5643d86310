package prune

// Internal tests for the reusable sweep session behind the cluster bound
// exchange: phase-for-phase equivalence with the one-shot calls, cache
// hit/miss/eviction behaviour, and the stale degradation to trivially
// sound answers.

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/mod"
	"repro/internal/textidx"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

func sweepStore(t *testing.T, n int) (*mod.Store, []*trajectory.Trajectory) {
	t.Helper()
	trs, err := workload.Generate(workload.DefaultConfig(11), n)
	if err != nil {
		t.Fatal(err)
	}
	store, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	return store, trs
}

// TestSweepMatchesOneShot: both session phases must answer exactly like
// the one-shot SliceBounds / SurvivorsWithBounds calls they memoize.
func TestSweepMatchesOneShot(t *testing.T) {
	store, trs := sweepStore(t, 120)
	q := trs[0]
	ctx := context.Background()
	const tb, te = 0.0, 30.0

	s, err := NewSweepWhere(store, q, tb, te, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 2} { // 0 exercises the clamp-to-1 branch
		got, err := s.Bounds(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SliceBoundsWhere(ctx, store, q, tb, te, max(k, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: session bounds diverge from one-shot", k)
		}
	}

	bounds, err := s.Bounds(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotTrs, gotStats, err := s.Survivors(ctx, bounds)
	if err != nil {
		t.Fatal(err)
	}
	wantTrs, wantStats, err := SurvivorsWithBoundsWhere(ctx, store, q, tb, te, bounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTrs) != len(wantTrs) {
		t.Fatalf("session kept %d survivors, one-shot %d", len(gotTrs), len(wantTrs))
	}
	for i := range gotTrs {
		if gotTrs[i].OID != wantTrs[i].OID {
			t.Fatalf("survivor %d: OID %d vs %d", i, gotTrs[i].OID, wantTrs[i].OID)
		}
	}
	if gotStats.Candidates != wantStats.Candidates || gotStats.Survivors != wantStats.Survivors {
		t.Fatalf("stats %+v vs %+v", gotStats, wantStats)
	}

	if _, err := NewSweepWhere(store, q, 30, 30, nil); err == nil {
		t.Fatal("empty window accepted")
	}
}

// TestSharedProbePassEqualsSingleRank: one session asked for ranks 1..6
// in a scrambled order probes once per width — ranks up to 4 share one
// pass — and every rank's bounds and probe count equal those of a fresh
// session asked for that rank alone, unfiltered and under a predicate.
func TestSharedProbePassEqualsSingleRank(t *testing.T) {
	store, trs := sweepStore(t, 300)
	for _, tr := range trs {
		if tr.OID%2 == 0 {
			if err := store.SetTags(tr.OID, []string{"available"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx := context.Background()
	for _, where := range []*textidx.Predicate{nil, {All: []string{"available"}}} {
		for _, w := range [][2]float64{{0, 60}, {12.5, 31}} {
			shared := newSweep(store, trs[3], w[0], w[1], where)
			for _, k := range []int{3, 1, 6, 2, 5, 4} {
				got, err := shared.rankBounds(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := newSweep(store, trs[3], w[0], w[1], where).rankBounds(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.bounds, want.bounds) || got.probes != want.probes {
					t.Fatalf("where=%v window=%v k=%d: shared session %v (%d probes), single rank %v (%d)",
						where != nil, w, k, got.bounds, got.probes, want.bounds, want.probes)
				}
			}
			if len(shared.passes) != 3 {
				t.Fatalf("where=%v window=%v: %d probe passes for ranks 1..6, want one per width (3)",
					where != nil, w, len(shared.passes))
			}
		}
	}
}

// TestSweepStaleDegradation: a stale session (mutation raced the
// snapshot) must degrade to the trivially sound answers — +Inf bounds
// and keep-every-candidate survivors.
func TestSweepStaleDegradation(t *testing.T) {
	store, trs := sweepStore(t, 40)
	q := trs[0]
	ctx := context.Background()
	s, err := NewSweepWhere(store, q, 0, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.stale = true

	bounds, err := s.Bounds(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) == 0 {
		t.Fatal("no slices")
	}
	for i, b := range bounds {
		if !math.IsInf(b, 1) {
			t.Fatalf("stale bound %d is %g, want +Inf", i, b)
		}
	}

	kept, st, err := s.Survivors(ctx, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(trs)-1 {
		t.Fatalf("stale sweep kept %d of %d non-query objects", len(kept), len(trs)-1)
	}
	if !slices.IsSortedFunc(kept, func(a, b *trajectory.Trajectory) int {
		return int(a.OID - b.OID)
	}) {
		t.Fatal("stale survivors not OID-sorted")
	}
	for _, tr := range kept {
		if tr.OID == q.OID {
			t.Fatal("stale sweep kept the query object")
		}
	}
	if st.Candidates != len(trs)-1 || st.Survivors != len(trs)-1 {
		t.Fatalf("stale stats %+v, want all %d", st, len(trs)-1)
	}
}
