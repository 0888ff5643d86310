package cluster_test

// The spatio-textual cluster gate: a Router over 1, 2, 4 and 8 shards —
// local and remote — must answer predicate-filtered requests
// byte-identically to a single-store Engine.Do with the same Where
// clause, for every kind, including targets that exist but fail the
// predicate (false, not ErrUnknownOID), and must stay identical under
// live ingest that flips tags.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// tagStore builds the seeded store and tags it deterministically by OID,
// so every predicate below selects a known, non-trivial sub-MOD that is
// scattered across shards by the hash partitioner.
func tagStore(t testing.TB, n int, r float64, seed int64) (*mod.Store, []*trajectory.Trajectory) {
	t.Helper()
	store, trs := buildStore(t, n, r, seed)
	for _, tr := range trs {
		var tags []string
		if tr.OID%2 == 0 {
			tags = append(tags, "available")
		}
		if tr.OID%3 == 0 {
			tags = append(tags, "ev")
		}
		if tr.OID%5 == 0 {
			tags = append(tags, "wheelchair")
		}
		if tags != nil {
			if err := store.SetTags(tr.OID, tags); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store, trs
}

// whereRequests is the predicate matrix: every kind under a predicate,
// plus the target semantics (matching, existing-but-non-matching, and
// globally absent targets).
func whereRequests(store *mod.Store, trs []*trajectory.Trajectory) []engine.Request {
	q := trs[0].OID
	avail := &textidx.Predicate{All: []string{"available"}}
	anyEV := &textidx.Predicate{Any: []string{"ev", "wheelchair"}}
	notEV := &textidx.Predicate{Not: []string{"ev"}}
	mixed := &textidx.Predicate{All: []string{"available"}, Not: []string{"wheelchair"}}
	var match, nonMatch int64
	for _, tr := range trs[1:] {
		if match == 0 && avail.Matches(store.Tags(tr.OID)) {
			match = tr.OID
		}
		if nonMatch == 0 && !avail.Matches(store.Tags(tr.OID)) {
			nonMatch = tr.OID
		}
		if match != 0 && nonMatch != 0 {
			break
		}
	}
	return []engine.Request{
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: match, Where: avail},
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: nonMatch, Where: avail},
		{Kind: engine.KindUQ12, QueryOID: q, Tb: equivTb, Te: equivTe, OID: match, Where: avail},
		{Kind: engine.KindUQ13, QueryOID: q, Tb: equivTb, Te: equivTe, OID: match, X: 0.25, Where: notEV},
		{Kind: engine.KindUQ21, QueryOID: q, Tb: equivTb, Te: equivTe, OID: match, K: 2, Where: avail},
		{Kind: engine.KindUQ22, QueryOID: q, Tb: equivTb, Te: equivTe, OID: match, K: 2, Where: anyEV},
		{Kind: engine.KindUQ23, QueryOID: q, Tb: equivTb, Te: equivTe, OID: match, K: 2, X: 0.5, Where: avail},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe, Where: avail},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe, Where: anyEV},
		{Kind: engine.KindUQ32, QueryOID: q, Tb: equivTb, Te: equivTe, Where: notEV},
		{Kind: engine.KindUQ33, QueryOID: q, Tb: equivTb, Te: equivTe, X: 0.25, Where: mixed},
		{Kind: engine.KindUQ41, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2, Where: avail},
		{Kind: engine.KindUQ42, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2, Where: anyEV},
		{Kind: engine.KindUQ43, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2, X: 0.5, Where: notEV},
		{Kind: engine.KindNNAt, QueryOID: q, Tb: equivTb, Te: equivTe, OID: match, T: 15, Where: avail},
		{Kind: engine.KindRankAt, QueryOID: q, Tb: equivTb, Te: equivTe, OID: match, T: 15, K: 2, Where: avail},
		{Kind: engine.KindAllNNAt, QueryOID: q, Tb: equivTb, Te: equivTe, T: 15, Where: anyEV},
		{Kind: engine.KindAllRankAt, QueryOID: q, Tb: equivTb, Te: equivTe, T: 15, K: 2, Where: avail},
		{Kind: engine.KindUQ13, QueryOID: q, Tb: equivTb, Te: equivTe, OID: match, P: 0.2, X: 0.3, Where: avail},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe, P: 1, Where: avail},
		{Kind: engine.KindUQ33, QueryOID: q, Tb: equivTb, Te: equivTe, P: 1, Where: avail},
		{Kind: engine.KindAllPairs, Tb: equivTb, Te: equivTe, Where: avail},
		{Kind: engine.KindAllPairs, Tb: equivTb, Te: equivTe, Where: anyEV},
		{Kind: engine.KindReverse, Tb: equivTb, Te: equivTe, OID: match, Where: avail},
		{Kind: engine.KindReverse, Tb: equivTb, Te: equivTe, OID: nonMatch, Where: avail},
		// A filtered and an unfiltered request against the same (query,
		// window): the gathers must not cross-contaminate.
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe},
		// Error path: target absent from every shard, predicate set.
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: 987654321, Where: avail},
	}
}

func TestRouterEquivalenceWhereLocal(t *testing.T) {
	store, trs := tagStore(t, 300, equivR, equivSeed)
	reqs := whereRequests(store, trs)
	want := singleAnswers(t, store, reqs)
	for _, shards := range []int{1, 2, 4, 8} {
		router, err := cluster.NewLocalCluster(store, shards, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := router.DoBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, fmt.Sprintf("where-local/%d", shards), reqs, want, got)
	}
}

// TestRouterEquivalenceWhereDo routes each predicate request through the
// one-shot Do path (no batch caches) so the per-call filtered gather is
// exercised too.
func TestRouterEquivalenceWhereDo(t *testing.T) {
	store, trs := tagStore(t, 150, equivR, equivSeed)
	reqs := whereRequests(store, trs)
	want := singleAnswers(t, store, reqs)
	router, err := cluster.NewLocalCluster(store, 4, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]engine.Result, len(reqs))
	for i, req := range reqs {
		got[i], _ = router.Do(context.Background(), req)
	}
	checkSame(t, "where-do/4", reqs, want, got)
}

// TestRouterEquivalenceWhereRemote sends the predicate matrix over the
// wire: Where travels on the bounds/survivors/oids phases and tags ride
// the get replies.
func TestRouterEquivalenceWhereRemote(t *testing.T) {
	store, trs := tagStore(t, 200, equivR, equivSeed)
	reqs := whereRequests(store, trs)
	want := singleAnswers(t, store, reqs)
	for _, shards := range []int{2, 3} {
		router, err := cluster.NewRouter(context.Background(),
			startShardServers(t, store, shards, cluster.Hash{}, cluster.RemoteOptions{}), cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := router.DoBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, fmt.Sprintf("where-remote/%d", shards), reqs, want, got)
	}
}

// TestRouterWhereUnderTagFlips pins the live half of the contract: after
// an ingest batch that flips tags (pure flips — no motion change — plus a
// combined revision+retag), filtered answers through the router must
// still match a single filtered engine over an identically mutated store.
func TestRouterWhereUnderTagFlips(t *testing.T) {
	store, trs := tagStore(t, 200, equivR, equivSeed)
	router, err := cluster.NewLocalCluster(store, 4, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := whereRequests(store, trs)
	want := singleAnswers(t, store, reqs)
	got, err := router.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, "pre-flip/4", reqs, want, got)

	// Flip tags on a spread of objects: gain, lose, and clear.
	newTags := func(ts ...string) *[]string { return &ts }
	var updates []mod.Update
	for i, tr := range trs {
		switch i % 7 {
		case 0:
			updates = append(updates, mod.Update{OID: tr.OID, Tags: newTags("available", "ev")})
		case 3:
			updates = append(updates, mod.Update{OID: tr.OID, Tags: newTags()})
		case 5:
			updates = append(updates, mod.Update{OID: tr.OID, Tags: newTags("wheelchair")})
		}
	}
	if _, err := router.Ingest(context.Background(), updates); err != nil {
		t.Fatal(err)
	}
	// Mirror the flips on the oracle store.
	if _, err := store.ApplyUpdates(updates); err != nil {
		t.Fatal(err)
	}

	reqs = whereRequests(store, trs)
	want = singleAnswers(t, store, reqs)
	got, err = router.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, "post-flip/4", reqs, want, got)
}
