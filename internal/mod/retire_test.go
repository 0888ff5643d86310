package mod

// Retirement at the store layer: the Retire update removes an object
// everywhere a query can see it, steps the cached index chains without a
// rebuild, and admits re-insertion of the same OID.

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/textidx"
	"repro/internal/trajectory"
)

func TestApplyRetireBasics(t *testing.T) {
	st := newTestStore(t)
	if _, err := applyOne(st, Update{OID: 1, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 5}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetTags(1, []string{"ev", "pool"}); err != nil {
		t.Fatal(err)
	}

	// A retire update carries no other state.
	if _, err := applyOne(st, Update{OID: 1, Retire: true, Verts: []trajectory.Vertex{{X: 2, Y: 2, T: 6}}}); !errors.Is(err, ErrRetireConflict) {
		t.Fatalf("retire with verts err = %v, want ErrRetireConflict", err)
	}
	if _, err := applyOne(st, Update{OID: 1, Retire: true, Tags: &[]string{"ev"}}); !errors.Is(err, ErrRetireConflict) {
		t.Fatalf("retire with tags err = %v, want ErrRetireConflict", err)
	}
	// Retiring an unknown OID is a data error, same identity as Get.
	if _, err := applyOne(st, Update{OID: 99, Retire: true}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("retire unknown err = %v, want ErrNotFound", err)
	}

	v0 := st.Version()
	a, err := applyOne(st, Update{OID: 1, Retire: true})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Retired || a.Traj != nil || a.Prev == nil || !math.IsInf(a.ChangedFrom, -1) {
		t.Fatalf("retire outcome = %+v", a)
	}
	if !a.TagsChanged || !slices.Equal(a.PrevTags, []string{"ev", "pool"}) {
		t.Fatalf("retire tag outcome = %+v", a)
	}
	if st.Version() != v0+1 {
		t.Fatalf("version %d after retire of v%d", st.Version(), v0)
	}
	if _, err := st.Get(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after retire = %v, want ErrNotFound", err)
	}
	if got := st.Tags(1); got != nil {
		t.Fatalf("Tags after retire = %v, want nil", got)
	}

	// The OID is free again: a fresh insert succeeds.
	a, err = applyOne(st, Update{OID: 1, Verts: []trajectory.Vertex{{X: 9, Y: 9, T: 20}, {X: 10, Y: 10, T: 25}}})
	if err != nil || !a.Inserted {
		t.Fatalf("re-insert after retire: %+v, %v", a, err)
	}
	if tr, err := st.Get(1); err != nil || len(tr.Verts) != 2 {
		t.Fatalf("re-inserted plan: %v, %v", tr, err)
	}
}

// TestRetireIndexMaintenance: with the segment R-tree warm, a retirement
// steps the chain incrementally — no rebuild — and the retired OID stops
// matching predicates even though its spatial entries linger as
// conservative false positives.
func TestRetireIndexMaintenance(t *testing.T) {
	st, _ := liveWorkloadStore(t, 60, 406)
	oids := st.OIDs()
	if err := st.SetTags(oids[0], []string{"ev"}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetTags(oids[1], []string{"ev"}); err != nil {
		t.Fatal(err)
	}
	st.BuildIndex(0)
	base := st.IndexStats()

	if _, err := applyOne(st, Update{OID: oids[0], Retire: true}); err != nil {
		t.Fatal(err)
	}
	st.BuildIndex(0)
	stats := st.IndexStats()
	if stats.SegBuilds != base.SegBuilds {
		t.Fatalf("retire forced a rebuild: base %+v now %+v", base, stats)
	}
	if stats.SegIncremental != base.SegIncremental+1 {
		t.Fatalf("retire did not step the spatial chain: base %+v now %+v", base, stats)
	}
	if got := st.MatchingOIDs(&textidx.Predicate{All: []string{"ev"}}); len(got) != 1 || got[0] != oids[1] {
		t.Fatalf("ev matches after retire = %v, want [%d]", got, oids[1])
	}
}
