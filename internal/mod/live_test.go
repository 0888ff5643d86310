package mod

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/sindex"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// applyOne applies a batch of one update.
func applyOne(st *Store, u Update) (Applied, error) {
	a, err := st.ApplyUpdates([]Update{u})
	if err != nil {
		return Applied{}, err
	}
	return a[0], nil
}

func TestApplyUpdateExtendsCopyOnWrite(t *testing.T) {
	st := newTestStore(t)
	tr := traj(t, 1)
	if err := st.Insert(tr); err != nil {
		t.Fatal(err)
	}
	v0 := st.Version()
	a, err := applyOne(st, Update{OID: 1, Verts: []trajectory.Vertex{{X: 12, Y: 12, T: 12}, {X: 14, Y: 12, T: 15}}})
	if err != nil {
		t.Fatal(err)
	}
	if a.ChangedFrom != 10 || a.Prev != tr {
		t.Fatalf("changedFrom = %g prev = %p, want 10 and the inserted plan", a.ChangedFrom, a.Prev)
	}
	if st.Version() != v0+1 {
		t.Fatalf("version %d, want %d", st.Version(), v0+1)
	}
	// Copy-on-write: the inserted value is untouched; the stored one grew.
	if len(tr.Verts) != 2 {
		t.Fatalf("original trajectory mutated: %d verts", len(tr.Verts))
	}
	got, err := st.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Verts) != 4 || got.Verts[3].T != 15 {
		t.Fatalf("stored trajectory = %+v", got.Verts)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyUpdateRejections(t *testing.T) {
	st := newTestStore(t)
	if err := st.Insert(traj(t, 1)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		oid   int64
		verts []trajectory.Vertex
		want  error
	}{
		{"unknown oid, one vertex", 9, []trajectory.Vertex{{X: 0, Y: 0, T: 20}}, ErrShortInsert},
		{"at the first vertex", 1, []trajectory.Vertex{{X: 0, Y: 0, T: 0}}, ErrStaleVertex},
		{"before the plan", 1, []trajectory.Vertex{{X: 0, Y: 0, T: -1}}, ErrStaleVertex},
		{"non-monotone pair", 1, []trajectory.Vertex{{X: 0, Y: 0, T: 11}, {X: 0, Y: 0, T: 11}}, ErrStaleVertex},
		{"empty", 1, nil, ErrStaleVertex},
		{"nan", 1, []trajectory.Vertex{{X: math.NaN(), Y: 0, T: 20}}, trajectory.ErrNonFinite},
	}
	v0 := st.Version()
	for _, c := range cases {
		if _, err := applyOne(st, Update{OID: c.oid, Verts: c.verts}); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if st.Version() != v0 {
		t.Fatalf("rejected updates bumped the version: %d -> %d", v0, st.Version())
	}
	if _, err := applyOne(st, Update{OID: 1, Verts: []trajectory.Vertex{{X: 11, Y: 11, T: 11}}}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyUpdateInsertAndExtend(t *testing.T) {
	st := newTestStore(t)
	// Unknown OID with one vertex: rejected.
	if _, err := applyOne(st, Update{OID: 5, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: 0}}}); !errors.Is(err, ErrShortInsert) {
		t.Fatalf("short insert err = %v", err)
	}
	// Unknown OID with two vertices: inserted.
	a, err := applyOne(st, Update{OID: 5, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Inserted || !math.IsInf(a.ChangedFrom, -1) || a.Traj == nil {
		t.Fatalf("insert outcome = %+v", a)
	}
	// Same OID again: extension.
	a, err = applyOne(st, Update{OID: 5, Verts: []trajectory.Vertex{{X: 2, Y: 2, T: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Inserted || a.ChangedFrom != 5 || len(a.Traj.Verts) != 3 {
		t.Fatalf("extend outcome = %+v", a)
	}
	applied, err := st.ApplyUpdates([]Update{
		{OID: 5, Verts: []trajectory.Vertex{{X: 3, Y: 3, T: 9}}},
		{OID: 6, Verts: []trajectory.Vertex{{X: 3, Y: 3, T: 7}}}, // short insert: stops here
	})
	if !errors.Is(err, ErrShortInsert) || len(applied) != 1 {
		t.Fatalf("batch: applied %d err %v", len(applied), err)
	}
}

// liveWorkloadStore seeds a store and returns the held-back tails: per
// trajectory, the vertices beyond the first half, to be appended later.
func liveWorkloadStore(t *testing.T, n int, seed int64) (*Store, map[int64][]trajectory.Vertex) {
	t.Helper()
	trs, err := workload.Generate(workload.DefaultConfig(seed), n)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t)
	tails := make(map[int64][]trajectory.Vertex)
	for _, tr := range trs {
		cut := len(tr.Verts)/2 + 1
		if cut < 2 {
			cut = 2
		}
		head, err := trajectory.New(tr.OID, append([]trajectory.Vertex(nil), tr.Verts[:cut]...))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(head); err != nil {
			t.Fatal(err)
		}
		tails[tr.OID] = tr.Verts[cut:]
	}
	return st, tails
}

// TestIncrementalIndexMatchesRebuild is the satellite gate: after live
// appends, the incrementally maintained segment R-tree answers identically
// to a from-scratch BuildIndex over the same contents.
func TestIncrementalIndexMatchesRebuild(t *testing.T) {
	st, tails := liveWorkloadStore(t, 120, 404)
	st.BuildIndex(0)
	for oid, verts := range tails {
		if len(verts) == 0 {
			continue
		}
		if _, err := applyOne(st, Update{OID: oid, Verts: verts}); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.IndexStats()
	if stats.SegBuilds != 1 || stats.SegIncremental == 0 {
		t.Fatalf("stats = %+v, want exactly one build and incremental appends", stats)
	}
	live := st.BuildIndex(0)
	if got := st.IndexStats().SegBuilds; got != 1 {
		t.Fatalf("BuildIndex after appends rebuilt (builds=%d)", got)
	}

	// A pristine store with identical contents builds from scratch.
	fresh := newTestStore(t)
	if err := fresh.InsertAll(st.All()); err != nil {
		t.Fatal(err)
	}
	rebuilt := fresh.BuildIndex(0)

	if live.Len() != rebuilt.Len() {
		t.Fatalf("entry counts differ: live %d rebuilt %d", live.Len(), rebuilt.Len())
	}
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 60; q++ {
		x, y := rng.Float64()*40, rng.Float64()*40
		box := geom.AABB{MinX: x, MinY: y, MaxX: x + rng.Float64()*10, MaxY: y + rng.Float64()*10}
		t0 := rng.Float64() * 40
		t1 := t0 + rng.Float64()*20
		got := live.SearchRange(box, t0, t1)
		want := rebuilt.SearchRange(box, t0, t1)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("q=%d: SearchRange differs: %d vs %d ids", q, len(got), len(want))
		}
		p := geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
		gn := live.KNN(p, t0, 5)
		wn := rebuilt.KNN(p, t0, 5)
		if len(gn) != len(wn) {
			t.Fatalf("q=%d: KNN lengths differ: %d vs %d", q, len(gn), len(wn))
		}
		for i := range gn {
			if math.Abs(gn[i].Dist-wn[i].Dist) > 1e-9 {
				t.Fatalf("q=%d result %d: KNN dist %g vs %g", q, i, gn[i].Dist, wn[i].Dist)
			}
		}
	}
}

// TestRevisionWorkloadCompactsIndex pins the chain-cut rule: a sustained
// revision workload leaves superseded entries in the chained tree, and
// once they pile past a compactionSlack-th of the live segment count the
// chain must be cut and rebuilt — after every BuildIndex the tree holds at
// most live + live/compactionSlack entries (or the floor) plus the one
// revision chained past the last check, and every rebuild holds the live
// segments alone. The fleet is large enough that the rule, not the floor,
// decides.
func TestRevisionWorkloadCompactsIndex(t *testing.T) {
	const fleet = 120 // 1 200 live segments before the first revision
	st := revisionFleetOf(t, fleet)
	st.BuildIndex(0)
	for i := 0; i < 500; i++ {
		reviseTail(t, st, int64(i%fleet+1))
		builds := st.IndexStats().SegBuilds
		got := st.BuildIndex(0).Len()
		live := st.segLive
		if bound := max(compactionFloor, live+live/compactionSlack) + revisionEntries; got > bound {
			t.Fatalf("revision %d: index holds %d entries for %d live segments, bound %d", i, got, live, bound)
		}
		if st.IndexStats().SegBuilds > builds && got != live {
			t.Fatalf("revision %d: a rebuild holds %d entries for %d live segments", i, got, live)
		}
	}
	if stats := st.IndexStats(); stats.SegBuilds < 3 {
		t.Fatalf("chained tree compacted %d times under a revision workload: %+v", stats.SegBuilds-1, stats)
	}
}

// TestRebuildHoldsLiveSegmentsOnly: after revisions, a retirement and a
// tag flip, the rebuilt tree's entries are appendSegEntries over All() —
// the same multiset of IDs, and window for window the same answer as a
// tree of exactly those entries.
func TestRebuildHoldsLiveSegmentsOnly(t *testing.T) {
	st := revisionFleet(t)
	st.BuildIndex(0)
	for i := 0; i < 60; i++ {
		reviseTail(t, st, int64(i%revisionFleetSize+1))
		st.BuildIndex(0)
	}
	if _, err := applyOne(st, Update{OID: 7, Retire: true}); err != nil {
		t.Fatal(err)
	}
	tags := []string{"ev"}
	if _, err := applyOne(st, Update{OID: 3, Tags: &tags}); err != nil {
		t.Fatal(err)
	}
	if st.BuildIndex(0).Len() == st.segLive {
		t.Fatal("the chained tree holds no superseded entries: nothing to compact")
	}
	if err := st.Insert(traj(t, 1000)); err != nil { // a loader's bump leaves the cache stale
		t.Fatal(err)
	}
	got := st.BuildIndex(0)
	var want []sindex.Entry
	for _, tr := range st.All() {
		want = appendSegEntries(want, tr, math.Inf(-1), st.spec.R)
	}
	if got.Len() != len(want) {
		t.Fatalf("rebuilt tree holds %d entries, the live segments are %d", got.Len(), len(want))
	}
	world := geom.AABB{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}
	ids := func(es []sindex.Entry, box geom.AABB, t0, t1 float64) []int64 {
		var out []int64
		for _, e := range es {
			if e.T1 >= t0 && e.T0 <= t1 && e.Box.Intersects(box) {
				out = append(out, e.ID)
			}
		}
		slices.Sort(out)
		return out
	}
	sorted := func(v []int64) []int64 { slices.Sort(v); return v }
	if g, w := sorted(got.SearchRange(world, math.Inf(-1), math.Inf(1))), ids(want, world, math.Inf(-1), math.Inf(1)); !slices.Equal(g, w) {
		t.Fatalf("rebuilt tree's IDs %v, live segments' %v", g, w)
	}
	for _, e := range want {
		if g, w := sorted(got.SearchRange(e.Box, e.T0, e.T1)), ids(want, e.Box, e.T0, e.T1); !slices.Equal(g, w) {
			t.Fatalf("window of entry %+v: rebuilt tree answers %v, live segments %v", e, g, w)
		}
	}
}

const revisionFleetSize = 40

// revisionFleet holds revisionFleetSize parallel 10-segment plans over
// [0, 10].
func revisionFleet(t *testing.T) *Store { return revisionFleetOf(t, revisionFleetSize) }

// revisionFleetOf holds n parallel 10-segment plans over [0, 10].
func revisionFleetOf(t *testing.T, n int64) *Store {
	t.Helper()
	st := newTestStore(t)
	for oid := int64(1); oid <= n; oid++ {
		verts := make([]trajectory.Vertex, 11)
		for i := range verts {
			verts[i] = trajectory.Vertex{X: float64(i), Y: float64(oid), T: float64(i)}
		}
		tr, err := trajectory.New(oid, verts)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// revisionEntries is what one reviseTail chains into the index.
const revisionEntries = 3

// reviseTail rewrites oid's plan from t=5 on: revisionEntries new index
// entries, and whatever the old tail had is superseded.
func reviseTail(t *testing.T, st *Store, oid int64) {
	t.Helper()
	if _, err := applyOne(st, Update{OID: oid, Verts: []trajectory.Vertex{
		{X: 5, Y: float64(oid), T: 5},
		{X: 7, Y: float64(oid) + 0.5, T: 7},
		{X: 10, Y: float64(oid), T: 10},
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestTagFlipStepsChainsAndNeverCuts pins the one maintenance step on the
// two routes that insert nothing, at the moment the chain is due for
// compaction: a tag flip moved neither the tree nor the live count, so it
// advances the cached version, counts as a step, and leaves the cut to
// the next mutation that moves segments — here a retirement.
func TestTagFlipStepsChainsAndNeverCuts(t *testing.T) {
	st := revisionFleet(t)
	idx := st.BuildIndex(0)
	for i := 0; idx.Len() <= compactionFloor || idx.Len() <= st.segLive+st.segLive/compactionSlack; i++ {
		reviseTail(t, st, int64(i%revisionFleetSize+1))
		idx = st.BuildIndex(0)
	}
	want := st.IndexStats()
	if want.SegBuilds != 1 {
		t.Fatalf("the chain was cut before it outgrew the bound: %+v", want)
	}

	tags := []string{"ev"}
	if _, err := applyOne(st, Update{OID: 1, Tags: &tags}); err != nil {
		t.Fatal(err)
	}
	if st.BuildIndex(0) != idx {
		t.Fatal("a tag flip replaced the cached tree")
	}
	want.SegIncremental++
	if got := st.IndexStats(); got != want {
		t.Fatalf("after a tag flip: stats %+v, want %+v", got, want)
	}

	if _, err := applyOne(st, Update{OID: 2, Retire: true}); err != nil {
		t.Fatal(err)
	}
	st.BuildIndex(0)
	want.SegBuilds++
	if got := st.IndexStats(); got != want {
		t.Fatalf("after a retirement on an overgrown chain: stats %+v, want %+v", got, want)
	}
}
