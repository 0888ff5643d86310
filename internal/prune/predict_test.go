package prune_test

// The predictive-serving gate: a store with a pinned TPR coverage must
// answer every request kind byte-identically to the segment-R-tree
// (rebuild) path — before and after live appends — while never rebuilding
// the TPR tree (the whole point of wiring it in: predictive
// [now, now+horizon] windows under ingest without index churn).

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/prune"
	"repro/internal/trajectory"
)

func predictRequests(oids []int64, tb, te float64) []engine.Request {
	q1, q2 := oids[3], oids[len(oids)/2]
	target := oids[7]
	return []engine.Request{
		{Kind: engine.KindUQ31, QueryOID: q1, Tb: tb, Te: te},
		{Kind: engine.KindUQ32, QueryOID: q1, Tb: tb, Te: te},
		{Kind: engine.KindUQ33, QueryOID: q2, Tb: tb, Te: te, X: 0.25},
		{Kind: engine.KindUQ41, QueryOID: q2, Tb: tb, Te: te, K: 2},
		{Kind: engine.KindUQ43, QueryOID: q1, Tb: tb, Te: te, K: 3, X: 0.2},
		{Kind: engine.KindUQ11, QueryOID: q1, Tb: tb, Te: te, OID: target},
		{Kind: engine.KindUQ21, QueryOID: q2, Tb: tb, Te: te, OID: target, K: 2},
		{Kind: engine.KindNNAt, QueryOID: q1, Tb: tb, Te: te, OID: target, T: (tb + te) / 2},
		{Kind: engine.KindThreshold, QueryOID: q1, Tb: tb, Te: te, OID: target, P: 0.3, X: 0.4},
	}
}

func mustSameResults(t *testing.T, label string, a, b []engine.Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
	}
	for i := range a {
		if (a[i].Err == nil) != (b[i].Err == nil) {
			t.Fatalf("%s[%d]: err %v vs %v", label, i, a[i].Err, b[i].Err)
		}
		if a[i].IsBool != b[i].IsBool || a[i].Bool != b[i].Bool ||
			!reflect.DeepEqual(a[i].OIDs, b[i].OIDs) || !reflect.DeepEqual(a[i].Pairs, b[i].Pairs) {
			t.Fatalf("%s[%d] (%s): answers differ:\n  predictive: %+v\n  rebuild:    %+v",
				label, i, a[i].Kind, answerOf(a[i]), answerOf(b[i]))
		}
	}
}

func answerOf(r engine.Result) any {
	if r.IsBool {
		return r.Bool
	}
	if r.Pairs != nil {
		return r.Pairs
	}
	return r.OIDs
}

func TestPredictivePathMatchesRebuildPath(t *testing.T) {
	const (
		n       = 140
		r       = 0.5
		seed    = 515
		refT    = 0.0
		horizon = 45.0
	)
	pred, _ := buildStore(t, n, r, seed)
	flat, _ := buildStore(t, n, r, seed)
	if err := pred.EnablePredictive(refT, horizon); err != nil {
		t.Fatal(err)
	}
	oids := pred.OIDs()
	ctx := context.Background()

	// The covered window takes the TPR path; a window past the coverage
	// falls back to the segment tree.
	q, err := pred.Get(oids[3])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, st, err := prune.ZoneWhereCtx(context.Background(), pred, q, 5, 25, 1, nil); err != nil || !st.Predictive {
		t.Fatalf("covered window: predictive=%v err=%v", st.Predictive, err)
	}
	if _, _, _, st, err := prune.ZoneWhereCtx(context.Background(), pred, q, 5, horizon+10, 1, nil); err != nil || st.Predictive {
		t.Fatalf("uncovered window: predictive=%v err=%v", st.Predictive, err)
	}
	if _, _, _, st, err := prune.ZoneWhereCtx(context.Background(), flat, q, 5, 25, 1, nil); err != nil || st.Predictive {
		t.Fatalf("plain store: predictive=%v err=%v", st.Predictive, err)
	}

	reqs := predictRequests(oids, 2, 40)
	got, err := engine.New(2).DoBatch(ctx, pred, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(2).DoBatch(ctx, flat, reqs)
	if err != nil {
		t.Fatal(err)
	}
	mustSameResults(t, "pre-ingest", got, want)

	// Live appends on both stores: extend half the fleet past its plan end
	// (the region predictive windows look at), then re-ask. The predictive
	// store must serve the new answers through incremental TPR inserts —
	// never a rebuild.
	for round := 0; round < 3; round++ {
		for i, oid := range oids {
			if i%2 != round%2 {
				continue
			}
			tr, err := pred.Get(oid)
			if err != nil {
				t.Fatal(err)
			}
			last := tr.Verts[len(tr.Verts)-1]
			ext := []trajectory.Vertex{
				{X: last.X + 0.4, Y: last.Y - 0.2, T: last.T + 1.5},
				{X: last.X - 0.3, Y: last.Y + 0.5, T: last.T + 3.1},
			}
			if _, err := pred.ExtendTrajectory(oid, ext); err != nil {
				t.Fatal(err)
			}
			if _, err := flat.ExtendTrajectory(oid, ext); err != nil {
				t.Fatal(err)
			}
		}
		got, err := engine.New(2).DoBatch(ctx, pred, reqs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.New(2).DoBatch(ctx, flat, reqs)
		if err != nil {
			t.Fatal(err)
		}
		mustSameResults(t, "post-ingest", got, want)
	}

	stats := pred.IndexStats()
	if stats.TPRBuilds != 1 {
		t.Fatalf("TPR tree was rebuilt under ingest: builds=%d (stats %+v)", stats.TPRBuilds, stats)
	}
	if stats.TPRIncremental == 0 {
		t.Fatalf("no incremental TPR maintenance recorded: %+v", stats)
	}
}

// TestPredictiveAutoAdvance: in auto mode the pin follows the clock — a
// query window past the pinned coverage re-pins forward and serves
// predictively (answers identical to the plain-store path), a historical
// window never moves the pin backward, and fixed-pin stores keep the old
// fall-back behavior.
func TestPredictiveAutoAdvance(t *testing.T) {
	const (
		n       = 140
		r       = 0.5
		seed    = 517
		horizon = 40.0
	)
	auto, _ := buildStore(t, n, r, seed)
	flat, _ := buildStore(t, n, r, seed)
	if err := auto.EnablePredictiveAuto(0, horizon); err != nil {
		t.Fatal(err)
	}
	oids := auto.OIDs()
	q, err := auto.Get(oids[3])
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Covered window: served from the initial pin, no advance.
	if _, _, _, st, err := prune.ZoneWhereCtx(context.Background(), auto, q, 5, 25, 1, nil); err != nil || !st.Predictive {
		t.Fatalf("covered window: predictive=%v err=%v", st.Predictive, err)
	}
	if st := auto.IndexStats(); st.TPRAdvances != 0 {
		t.Fatalf("covered window advanced the pin: %+v", st)
	}

	// The clock moved on: a window past the coverage re-pins forward and
	// still takes the predictive path.
	if _, _, _, st, err := prune.ZoneWhereCtx(context.Background(), auto, q, 50, 80, 1, nil); err != nil || !st.Predictive {
		t.Fatalf("advanced window: predictive=%v err=%v", st.Predictive, err)
	}
	if st := auto.IndexStats(); st.TPRAdvances != 1 {
		t.Fatalf("window past coverage did not advance once: %+v", st)
	}

	// A historical window after the advance falls back to the segment
	// R-tree; the pin never moves backward.
	if _, _, _, st, err := prune.ZoneWhereCtx(context.Background(), auto, q, 5, 25, 1, nil); err != nil || st.Predictive {
		t.Fatalf("historical window after advance: predictive=%v err=%v", st.Predictive, err)
	}
	// A window wider than the horizon cannot be pinned at all.
	if _, _, _, st, err := prune.ZoneWhereCtx(context.Background(), auto, q, 60, 60+horizon+5, 1, nil); err != nil || st.Predictive {
		t.Fatalf("over-wide window: predictive=%v err=%v", st.Predictive, err)
	}
	if st := auto.IndexStats(); st.TPRAdvances != 1 {
		t.Fatalf("fall-back windows moved the pin: %+v", st)
	}

	// Answers through the advanced pin are identical to the plain store.
	reqs := predictRequests(oids, 52, 78)
	got, err := engine.New(2).DoBatch(ctx, auto, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(2).DoBatch(ctx, flat, reqs)
	if err != nil {
		t.Fatal(err)
	}
	mustSameResults(t, "advanced pin", got, want)

	// A fixed pin (EnablePredictive) past its window still falls back.
	fixed, _ := buildStore(t, n, r, seed)
	if err := fixed.EnablePredictive(0, horizon); err != nil {
		t.Fatal(err)
	}
	if _, _, _, st, err := prune.ZoneWhereCtx(context.Background(), fixed, q, 50, 80, 1, nil); err != nil || st.Predictive {
		t.Fatalf("fixed pin advanced: predictive=%v err=%v", st.Predictive, err)
	}
	if st := fixed.IndexStats(); st.TPRAdvances != 0 {
		t.Fatalf("fixed pin recorded an advance: %+v", st)
	}
}

// TestPredictiveBoundsStaySound cross-checks the TPR-backed SliceBounds
// against the store contents directly: every finite bound must dominate
// the true Level-k envelope at sampled instants.
func TestPredictiveBoundsStaySound(t *testing.T) {
	store, trs := buildStore(t, 120, 0.5, 516)
	if err := store.EnablePredictive(0, 40); err != nil {
		t.Fatal(err)
	}
	q := trs[5]
	for _, k := range []int{1, 2, 3} {
		cuts := prune.SliceCuts(q, 1, 35)
		bounds, err := prune.SliceBoundsWhere(context.Background(), store, q, 1, 35, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(bounds) != len(cuts)-1 {
			t.Fatalf("k=%d: %d bounds for %d cuts", k, len(bounds), len(cuts))
		}
		for i := 1; i < len(cuts); i++ {
			u := bounds[i-1]
			if math.IsInf(u, 1) {
				continue
			}
			for _, frac := range []float64{0, 0.37, 0.71, 1} {
				tt := cuts[i-1] + (cuts[i]-cuts[i-1])*frac
				var ds []float64
				for _, tr := range trs {
					if tr.OID == q.OID {
						continue
					}
					ds = append(ds, tr.At(tt).Dist(q.At(tt)))
				}
				envK := kthSmallest(ds, k)
				if envK > u+1e-9 {
					t.Fatalf("k=%d slice %d t=%g: envelope %g exceeds bound %g", k, i, tt, envK, u)
				}
			}
		}
	}
	if st := store.IndexStats(); st.TPRBuilds != 1 {
		t.Fatalf("bounds probing rebuilt the TPR tree: %+v", st)
	}
}

func kthSmallest(ds []float64, k int) float64 {
	best := append([]float64(nil), ds...)
	// Tiny n: selection by sort is fine.
	for i := 0; i < len(best); i++ {
		for j := i + 1; j < len(best); j++ {
			if best[j] < best[i] {
				best[i], best[j] = best[j], best[i]
			}
		}
	}
	if k-1 < len(best) {
		return best[k-1]
	}
	return math.Inf(1)
}
