package prune_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/envelope"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// TestPrunedBuildWindowErrorsMatchFullScan: a pruned build that checks the
// window once against the snapshot's cover fails exactly when, and with
// the message with which, the full scan over the same (sub-)MOD fails —
// including for objects far enough away to be pruned, at the TimeEps
// edges of the cover and one ulp either side of them, and under a
// predicate whose uncovering object does not match.
func TestPrunedBuildWindowErrorsMatchFullScan(t *testing.T) {
	store, trs := buildStore(t, 200, 0.5, 5)
	q := trs[0]
	const (
		late, early    = int64(900_001), int64(900_002)
		lateT0, earlyT = 5.0, 50.0
	)
	far := func(oid int64, t0, t1 float64) *trajectory.Trajectory {
		tr, err := trajectory.New(oid, []trajectory.Vertex{{X: 5000, Y: 5000, T: t0}, {X: 5010, Y: 5000, T: t1}})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	if err := store.InsertAll([]*trajectory.Trajectory{far(late, lateT0, 70), far(early, 0, earlyT)}); err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		if tb, te := tr.TimeSpan(); tb > 0 || te < 60 {
			t.Fatalf("fixture: generated plan %d spans [%g, %g], not [0, 60]", tr.OID, tb, te)
		}
		if err := store.SetTags(tr.OID, []string{"avail"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.SetTags(early, []string{"avail"}); err != nil {
		t.Fatal(err)
	}
	if start, end := store.View().Cover(); start != lateT0 || end != earlyT {
		t.Fatalf("fixture: cover [%g, %g], want [%g, %g]", start, end, lateT0, earlyT)
	}
	avail := &textidx.Predicate{All: []string{"avail"}}

	lo, hi := lateT0-envelope.TimeEps, earlyT+envelope.TimeEps
	type window struct {
		name   string
		tb, te float64
		// fails names the predicate-less build's verdict; under avail the
		// late object (untagged) is outside the sub-MOD.
		fails, failsWhere bool
	}
	windows := []window{
		{"late object starts after tb", 2, 40, true, false},
		{"early object ends before te", 10, 55, true, true},
		{"tb at start-TimeEps", lo, 40, false, false},
		{"tb one ulp below", math.Nextafter(lo, math.Inf(-1)), 40, true, false},
		{"tb one ulp above", math.Nextafter(lo, math.Inf(1)), 40, false, false},
		{"te at end+TimeEps", 10, hi, false, false},
		{"te one ulp above", 10, math.Nextafter(hi, math.Inf(1)), true, true},
		{"te one ulp below", 10, math.Nextafter(hi, math.Inf(-1)), false, false},
		{"both edges", lo, hi, false, false},
	}
	ctx := context.Background()
	for _, w := range windows {
		for _, where := range []*textidx.Predicate{nil, avail} {
			label := fmt.Sprintf("%s [%v, %v] where=%v", w.name, w.tb, w.te, where != nil)
			ids, _, _, _, err := prune.ZoneWhereCtx(ctx, store, q, w.tb, w.te, 1, where)
			if err != nil {
				t.Fatalf("%s: zone: %v", label, err)
			}
			if slices.Contains(ids, late) || slices.Contains(ids, early) {
				t.Fatalf("%s: a far object survived the pre-pass; the case checks nothing", label)
			}
			universe := store.All()
			if where != nil {
				universe = nil
				for _, tr := range store.All() {
					if where.Matches(store.Tags(tr.OID)) {
						universe = append(universe, tr)
					}
				}
			}
			full, errFull := queries.NewProcessorOn(ctx, nil, universe, q, w.tb, w.te, store.Radius(), nil, nil)
			pruned, errPruned := prune.ForQueryWhereCtx(ctx, nil, store, q, w.tb, w.te, where)
			if want := w.fails && where == nil || w.failsWhere && where != nil; (errFull != nil) != want {
				t.Fatalf("%s: full scan error %v, want failure %v", label, errFull, want)
			}
			if (errFull == nil) != (errPruned == nil) {
				t.Fatalf("%s: full scan error %v, pruned build error %v", label, errFull, errPruned)
			}
			if errFull != nil {
				if !errors.Is(errFull, envelope.ErrBadWindow) || !errors.Is(errPruned, envelope.ErrBadWindow) || errFull.Error() != errPruned.Error() {
					t.Fatalf("%s: full scan error %q, pruned build error %q", label, errFull, errPruned)
				}
				continue
			}
			if a, b := full.UQ31(), pruned.UQ31(); !slices.Equal(a, b) {
				t.Fatalf("%s: UQ31 full %v, pruned %v", label, a, b)
			}
		}
	}
}
