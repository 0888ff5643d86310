package prune_test

// In-package coverage for the live-layer prune surface: the
// bounds-imposed survivor sweep against the plain candidate pass, the
// OID-addressed processor constructors, the exported exact-distance
// refinement, and the window validation errors.

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/prune"
	"repro/internal/trajectory"
)

func TestSurvivorsWithBoundsMatchesCandidates(t *testing.T) {
	store, trs := buildStore(t, 160, 0.5, 808)
	q := trs[4]
	ctx := context.Background()
	for _, win := range [][2]float64{{0, 30}, {5, 12}} {
		tb, te := win[0], win[1]
		bounds, err := prune.SliceBoundsWhere(ctx, store, q, tb, te, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		surv, stats, err := prune.SurvivorsWithBoundsWhere(ctx, store, q, tb, te, bounds, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int64, len(surv))
		for i, tr := range surv {
			ids[i] = tr.OID
		}
		want, _, _, wantStats, err := prune.ZoneWhereCtx(context.Background(), store, q, tb, te, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ids, want) {
			t.Fatalf("[%g,%g]: survivors %v != candidates %v", tb, te, ids, want)
		}
		if stats.Survivors != wantStats.Survivors || stats.Candidates != wantStats.Candidates {
			t.Fatalf("[%g,%g]: stats %+v vs %+v", tb, te, stats, wantStats)
		}
	}

	// All-Inf bounds keep everything (the "cannot bound" degenerate).
	cuts := prune.SliceCuts(q, 0, 30)
	inf := make([]float64, len(cuts)-1)
	for i := range inf {
		inf[i] = math.Inf(1)
	}
	surv, _, err := prune.SurvivorsWithBoundsWhere(ctx, store, q, 0, 30, inf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(surv) != store.Len()-1 {
		t.Fatalf("+Inf bounds kept %d of %d", len(surv), store.Len()-1)
	}

	// Window and length validation.
	if _, _, err := prune.SurvivorsWithBoundsWhere(ctx, store, q, 5, 5, nil, nil); err == nil {
		t.Fatal("degenerate window accepted")
	}
	if _, _, err := prune.SurvivorsWithBoundsWhere(ctx, store, q, 0, 30, inf[:1], nil); err == nil {
		t.Fatal("wrong bounds length accepted")
	}
	if _, err := prune.SliceBoundsWhere(ctx, store, q, 9, 9, 1, nil); err == nil {
		t.Fatal("degenerate bounds window accepted")
	}
}

func TestMinCrispDist(t *testing.T) {
	a, err := trajectory.New(1, []trajectory.Vertex{{X: 0, Y: 0, T: 0}, {X: 10, Y: 0, T: 10}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := trajectory.New(2, []trajectory.Vertex{{X: 10, Y: 3, T: 0}, {X: 0, Y: 3, T: 10}})
	if err != nil {
		t.Fatal(err)
	}
	// The objects cross at t=5 with vertical gap 3.
	if got := prune.MinCrispDist(a, b, 0, 10); math.Abs(got-3) > 1e-9 {
		t.Fatalf("MinCrispDist = %g, want 3", got)
	}
	// Restricted away from the crossing, the minimum sits at the slice
	// boundary: at t=8, |x| gap is 8-2=6, so dist = hypot(6, 3).
	want := math.Hypot(6, 3)
	if got := prune.MinCrispDist(a, b, 8, 10); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MinCrispDist tail = %g, want %g", got, want)
	}
}

func TestZoneCtxDegenerateWindow(t *testing.T) {
	store, trs := buildStore(t, 20, 0.5, 810)
	ids, cuts, bounds, st, err := prune.ZoneWhereCtx(context.Background(), store, trs[0], 7, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != store.Len()-1 || cuts != nil || bounds != nil || st.Survivors != len(ids) {
		t.Fatalf("degenerate zone: ids=%d cuts=%v bounds=%v stats=%+v", len(ids), cuts, bounds, st)
	}
}
