package engine

import (
	"context"
	"slices"
	"testing"

	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// splitOwn halves the store's non-query OIDs into two sorted shares, the
// way two shards would own a gathered union.
func splitOwn(store *mod.Store, qOID int64) (a, b []int64) {
	oids := slices.DeleteFunc(store.OIDs(), func(oid int64) bool { return oid == qOID })
	return oids[:len(oids)/2], oids[len(oids)/2:]
}

// TestDoRestrictedNeverFilters is the refine contract: DoRestricted's
// store is a survivor set already, so it builds from every object in it —
// the index is never built, probed or swept, at any rank or under a
// predicate — and the shares' answers still tile the pruned engine's.
func TestDoRestrictedNeverFilters(t *testing.T) {
	ctx := context.Background()
	store, qOID := tagFixture(t, 80, 91)
	ref, _ := tagFixture(t, 80, 91) // Do builds the index; keep that off the store under test
	ownA, ownB := splitOwn(store, qOID)
	reqs := append(batchKinds(qOID), forQuery(qOID,
		Request{Kind: KindUQ31, Where: &textidx.Predicate{All: []string{"available"}}},
	)...)
	refine, pruned := New(2), New(2)
	for _, req := range reqs {
		want, err := pruned.Do(ctx, ref, req)
		if err != nil {
			t.Fatalf("%s: %v", req.Kind, err)
		}
		a, err := refine.DoRestricted(ctx, store, req, ownA)
		if err != nil {
			t.Fatalf("%s: %v", req.Kind, err)
		}
		b, err := refine.DoRestricted(ctx, store, req, ownB)
		if err != nil {
			t.Fatalf("%s: %v", req.Kind, err)
		}
		if got := append(slices.Clone(a.OIDs), b.OIDs...); !slices.Equal(got, want.OIDs) {
			t.Errorf("%s k=%d where=%v: shares answer %v, pruned engine %v", req.Kind, req.K, req.Where, got, want.OIDs)
		}
		if a.Explain.Survivors != a.Explain.Candidates || a.Explain.Candidates != want.Explain.Candidates || a.Explain.Refined != len(ownA) {
			t.Errorf("%s: refine explain %+v, want survivors = candidates = %d", req.Kind, a.Explain, want.Explain.Candidates)
		}
		if !b.Explain.MemoHit {
			t.Errorf("%s: the second share rebuilt the union's processor", req.Kind)
		}
	}
	if got := store.IndexStats(); got != (mod.IndexStats{}) {
		t.Fatalf("refines touched the store's indexes: %+v", got)
	}
	if ref.IndexStats().SegBuilds == 0 {
		t.Fatal("the pruned reference never built its index: the comparison proves nothing")
	}
}

// TestPrunedAndWholeBuildsDoNotAlias: Do and DoRestricted on one store
// pointer and one (query, window) memoize two processors — a pruned and a
// whole one — that answer identically and never stand in for each other.
func TestPrunedAndWholeBuildsDoNotAlias(t *testing.T) {
	ctx := context.Background()
	store, qOID := newStore(t, 300, 92)
	own := slices.DeleteFunc(store.OIDs(), func(oid int64) bool { return oid == qOID })
	req := forQuery(qOID, Request{Kind: KindUQ31})[0]
	eng := New(2)
	for round, wantHit := range []bool{false, true} {
		pruned, err := eng.Do(ctx, store, req)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := eng.DoRestricted(ctx, store, req, own)
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Explain.MemoHit != wantHit || whole.Explain.MemoHit != wantHit {
			t.Fatalf("round %d: memo hits pruned=%v whole=%v, want %v", round, pruned.Explain.MemoHit, whole.Explain.MemoHit, wantHit)
		}
		if pruned.Explain.Survivors >= pruned.Explain.Candidates {
			t.Fatalf("round %d: Do answered from an unpruned build: %+v", round, pruned.Explain)
		}
		if whole.Explain.Survivors != whole.Explain.Candidates {
			t.Fatalf("round %d: DoRestricted answered from a pruned build: %+v", round, whole.Explain)
		}
		if !slices.Equal(pruned.OIDs, whole.OIDs) || len(whole.OIDs) == 0 {
			t.Fatalf("round %d: pruned %v, whole %v", round, pruned.OIDs, whole.OIDs)
		}
	}
	if eng.MemoLen() != 2 {
		t.Fatalf("memo holds %d processors, want a pruned and a whole one", eng.MemoLen())
	}
}

// BenchmarkRefineUnion: what a shard does with an uploaded union — load
// the gathered survivors into a store that lives for one query and answer
// its share of a UQ31. The union is a real survivor set of the size
// sharded_wire's exchange leaves: the 94 objects the pre-pass keeps of the
// benchmark's 3 000-object fleet for this query and window, and the query.
func BenchmarkRefineUnion(b *testing.B) {
	fleet, _ := newStore(b, 3000, 2009)
	req := Request{Kind: KindUQ31, QueryOID: 15, Tb: 20, Te: 30}
	q, err := fleet.Get(req.QueryOID)
	if err != nil {
		b.Fatal(err)
	}
	ids, _, _, _, err := prune.ZoneWhereCtx(context.Background(), fleet, q, req.Tb, req.Te, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	survivors := []*trajectory.Trajectory{q}
	for _, oid := range ids {
		tr, err := fleet.Get(oid)
		if err != nil {
			b.Fatal(err)
		}
		survivors = append(survivors, tr)
	}
	own := ids[:len(ids)/2]
	eng := New(2)
	b.ReportAllocs()
	for b.Loop() {
		union, err := mod.NewStore(fleet.Spec())
		if err != nil {
			b.Fatal(err)
		}
		if err := union.InsertAll(survivors); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.DoRestricted(context.Background(), union, req, own); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(survivors)), "objects")
}
