package mod

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

func TestApplyUpdateExtendsCopyOnWrite(t *testing.T) {
	st := newTestStore(t)
	tr := traj(t, 1)
	if err := st.Insert(tr); err != nil {
		t.Fatal(err)
	}
	v0 := st.Version()
	a, err := st.ApplyUpdate(Update{OID: 1, Verts: []trajectory.Vertex{{X: 12, Y: 12, T: 12}, {X: 14, Y: 12, T: 15}}})
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
		if _, err := st.ApplyUpdate(Update{OID: c.oid, Verts: c.verts}); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if st.Version() != v0 {
		t.Fatalf("rejected updates bumped the version: %d -> %d", v0, st.Version())
	}
	if _, err := st.ApplyUpdate(Update{OID: 1, Verts: []trajectory.Vertex{{X: 11, Y: 11, T: 11}}}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyUpdateInsertAndExtend(t *testing.T) {
	st := newTestStore(t)
	// Unknown OID with one vertex: rejected.
	if _, err := st.ApplyUpdate(Update{OID: 5, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: 0}}}); !errors.Is(err, ErrShortInsert) {
		t.Fatalf("short insert err = %v", err)
	}
	// Unknown OID with two vertices: inserted.
	a, err := st.ApplyUpdate(Update{OID: 5, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Inserted || !math.IsInf(a.ChangedFrom, -1) || a.Traj == nil {
		t.Fatalf("insert outcome = %+v", a)
	}
	// Same OID again: extension.
	a, err = st.ApplyUpdate(Update{OID: 5, Verts: []trajectory.Vertex{{X: 2, Y: 2, T: 8}}})
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
		if _, err := st.ApplyUpdate(Update{OID: oid, Verts: verts}); err != nil {
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

// TestRevisionWorkloadCompactsIndex pins the chain-cut heuristic: a
// sustained revision workload leaves superseded entries in the chained
// tree, and once they pile past compactionSlack × the live segment
// count the chain must be cut and rebuilt — index size stays
// proportional to the live fleet instead of to total updates ever
// ingested.
func TestRevisionWorkloadCompactsIndex(t *testing.T) {
	st := revisionFleet(t)
	st.BuildIndex(0)
	for i := 0; i < 500; i++ {
		reviseTail(t, st, int64(i%revisionFleetSize+1))
		st.BuildIndex(0) // consult, as a standing query workload would
	}
	stats := st.IndexStats()
	if stats.SegBuilds < 2 {
		t.Fatalf("chained tree never compacted under a revision workload: %+v", stats)
	}
	live := 0
	for _, tr := range st.All() {
		live += tr.NumSegments()
	}
	if got := st.BuildIndex(0).Len(); got > 4*live {
		t.Fatalf("index holds %d entries for %d live segments", got, live)
	}
}

const revisionFleetSize = 40

// revisionFleet holds revisionFleetSize parallel 10-segment plans over
// [0, 10].
func revisionFleet(t *testing.T) *Store {
	t.Helper()
	st := newTestStore(t)
	for oid := int64(1); oid <= revisionFleetSize; oid++ {
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

// reviseTail rewrites oid's plan from t=5 on: three new index entries, and
// whatever the old tail had is superseded.
func reviseTail(t *testing.T, st *Store, oid int64) {
	t.Helper()
	if _, err := st.ApplyUpdate(Update{OID: oid, Verts: []trajectory.Vertex{
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
	for i := 0; idx.Len() <= compactionFloor || idx.Len() <= compactionSlack*st.segLive; i++ {
		reviseTail(t, st, int64(i%revisionFleetSize+1))
		idx = st.BuildIndex(0)
	}
	want := st.IndexStats()
	if want.SegBuilds != 1 {
		t.Fatalf("the chain was cut before it outgrew the bound: %+v", want)
	}

	tags := []string{"ev"}
	if _, err := st.ApplyUpdate(Update{OID: 1, Tags: &tags}); err != nil {
		t.Fatal(err)
	}
	if st.BuildIndex(0) != idx {
		t.Fatal("a tag flip replaced the cached tree")
	}
	want.SegIncremental++
	if got := st.IndexStats(); got != want {
		t.Fatalf("after a tag flip: stats %+v, want %+v", got, want)
	}

	if _, err := st.ApplyUpdate(Update{OID: 2, Retire: true}); err != nil {
		t.Fatal(err)
	}
	st.BuildIndex(0)
	want.SegBuilds++
	if got := st.IndexStats(); got != want {
		t.Fatalf("after a retirement on an overgrown chain: stats %+v, want %+v", got, want)
	}
}
