package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/mod"
	"repro/internal/trajectory"
)

// TestIngestInvalidatesMemo is the stale-memo regression gate: the engine
// memoizes pruned candidate sets and envelope preprocessing per store
// version, so a live ingest (plan revision through ApplyUpdate) must bump
// the version and a standing engine must never serve pre-ingest
// envelopes. Before the live layer existed nothing exercised
// mutation-after-memo on this path.
func TestIngestInvalidatesMemo(t *testing.T) {
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(oid int64, y float64) *trajectory.Trajectory {
		verts := make([]trajectory.Vertex, 11)
		for i := range verts {
			verts[i] = trajectory.Vertex{X: float64(i), Y: y, T: float64(i)}
		}
		tr, err := trajectory.New(oid, verts)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for oid, y := range map[int64]float64{1: 0, 2: 1, 3: 50} {
		if err := st.Insert(mk(oid, y)); err != nil {
			t.Fatal(err)
		}
	}

	eng := New(1)
	req := Request{Kind: KindUQ31, QueryOID: 1, Tb: 0, Te: 10}
	ctx := context.Background()

	first, err := eng.Do(ctx, st, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.OIDs, []int64{2}) {
		t.Fatalf("pre-ingest answer = %v, want [2]", first.OIDs)
	}
	// Warm the memo: a repeat is a hit.
	again, err := eng.Do(ctx, st, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Explain.MemoHit {
		t.Fatal("repeat query did not hit the memo")
	}

	// Ingest: steer object 3 next to the query. The version bump must
	// invalidate the memoized envelope — the standing engine re-answers
	// like a fresh one, with no memo hit.
	v0 := st.Version()
	if _, err := st.ApplyUpdates([]mod.Update{{OID: 3, Verts: []trajectory.Vertex{
		{X: 6, Y: 1, T: 6}, {X: 10, Y: 0.5, T: 10},
	}}}); err != nil {
		t.Fatal(err)
	}
	if st.Version() == v0 {
		t.Fatal("ingest did not bump the store version")
	}

	post, err := eng.Do(ctx, st, req)
	if err != nil {
		t.Fatal(err)
	}
	if post.Explain.MemoHit {
		t.Fatal("post-ingest query served the pre-ingest memo entry")
	}
	fresh, err := New(1).Do(ctx, st, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(post.OIDs, fresh.OIDs) {
		t.Fatalf("standing engine answered %v, fresh engine %v", post.OIDs, fresh.OIDs)
	}
	if !reflect.DeepEqual(post.OIDs, []int64{2, 3}) {
		t.Fatalf("post-ingest answer = %v, want [2 3]", post.OIDs)
	}

	// And the memo works again at the new version.
	hot, err := eng.Do(ctx, st, req)
	if err != nil {
		t.Fatal(err)
	}
	if !hot.Explain.MemoHit {
		t.Fatal("post-ingest repeat did not re-memoize")
	}
}
