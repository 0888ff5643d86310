package cluster_test

// The cluster equivalence gate: a Router over 1, 2, 4 and 8 shards —
// hash-partitioned, both LocalShard and RemoteShard kinds — must return
// byte-identical answers to a single-store Engine.Do for every Request
// kind on a seeded 500-trajectory store, including the NN-family kinds
// that exercise the two-phase bound exchange, the single-object kinds
// whose targets live on other shards (or nowhere), and the error paths.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/modserver"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

const (
	equivN    = 500
	equivR    = 0.5
	equivSeed = 2009
	equivTb   = 0.0
	equivTe   = 30.0
)

func buildStore(t testing.TB, n int, r float64, seed int64) (*mod.Store, []*trajectory.Trajectory) {
	t.Helper()
	trs, err := workload.Generate(workload.DefaultConfig(seed), n)
	if err != nil {
		t.Fatal(err)
	}
	store, err := mod.NewUniformStore(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	return store, trs
}

// equivRequests covers every Request kind, plus the error paths a router
// must reproduce (unknown query OID, unknown target OID) and a target
// that the index pre-pass prunes (the answer must be false, not
// ErrUnknownOID — the distinction the target fetch exists for). A second
// pruned target, far2, is first named after the filter rows, so a batch
// fetches it into a union whose processor is already built; it sits
// outside even the batch's rank-3 gather, which holds trs[len(trs)-2] and
// trs[len(trs)-3] on the 500-object store.
func equivRequests(trs []*trajectory.Trajectory) []engine.Request {
	q := trs[0].OID
	near := trs[1].OID
	far := trs[len(trs)-1].OID
	far2 := trs[max(len(trs)-4, 1)].OID
	return []engine.Request{
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near},
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: far},
		{Kind: engine.KindUQ12, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near},
		{Kind: engine.KindUQ13, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, X: 0.25},
		{Kind: engine.KindUQ21, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, K: 2},
		{Kind: engine.KindUQ22, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, K: 3},
		{Kind: engine.KindUQ23, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, K: 2, X: 0.5},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindUQ32, QueryOID: q, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindUQ33, QueryOID: q, Tb: equivTb, Te: equivTe, X: 0.25},
		{Kind: engine.KindUQ41, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2},
		{Kind: engine.KindUQ42, QueryOID: q, Tb: equivTb, Te: equivTe, K: 3},
		{Kind: engine.KindUQ43, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2, X: 0.5},
		{Kind: engine.KindNNAt, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, T: 15},
		{Kind: engine.KindRankAt, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, T: 15, K: 2},
		{Kind: engine.KindAllNNAt, QueryOID: q, Tb: equivTb, Te: equivTe, T: 15},
		{Kind: engine.KindAllRankAt, QueryOID: q, Tb: equivTb, Te: equivTe, T: 15, K: 2},
		{Kind: engine.KindUQ13, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, P: 0.2, X: 0.3},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe, P: 1},
		{Kind: engine.KindNNAt, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, T: 15, P: 1},
		// A fraction that rounds to zero enumerates every candidate, far
		// ones included, at every probability bound.
		{Kind: engine.KindUQ33, QueryOID: q, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindUQ33, QueryOID: q, Tb: equivTb, Te: equivTe, P: 0.5},
		{Kind: engine.KindUQ43, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2},
		// far2 joins the built union: a stale processor answers
		// ErrUnknownOID here, and a "pruned ⇒ false" shortcut answers the
		// zero requirement false.
		{Kind: engine.KindUQ13, QueryOID: q, Tb: equivTb, Te: equivTe, OID: far2, X: 0},
		{Kind: engine.KindNNAt, QueryOID: q, Tb: equivTb, Te: equivTe, OID: far2, T: 15},
		// A whole-MOD threshold (UQ33 with 0 < P < 1) integrates a
		// probability series per UQ31 member (tens of seconds at this
		// density); it gets its own sparser-store matrix in
		// TestRouterEquivalenceAllThreshold.
		{Kind: engine.KindAllPairs, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindReverse, Tb: equivTb, Te: equivTe, OID: near},
		// A second query trajectory so the batch exercises group caching.
		{Kind: engine.KindUQ31, QueryOID: trs[(len(trs)-1)/2].OID, Tb: equivTb, Te: equivTe},
		// Error paths: unknown target, unknown query trajectory.
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: 987654321},
		{Kind: engine.KindUQ31, QueryOID: 987654321, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindReverse, Tb: equivTb, Te: equivTe, OID: 987654321},
	}
}

// checkSame asserts result equivalence: identical answer bytes and
// matching error presence, per request.
func checkSame(t *testing.T, label string, reqs []engine.Request, want, got []engine.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d results for %d requests", label, len(got), len(want))
	}
	sentinels := map[string]error{
		"ErrUnknownOID": engine.ErrUnknownOID, // unknown target object
		"ErrNotFound":   mod.ErrNotFound,      // unknown query trajectory
		"ErrBadWindow":  engine.ErrBadWindow,
		"ErrBadKind":    engine.ErrBadKind,
		"ErrBadRank":    engine.ErrBadRank,
		"ErrBadFrac":    engine.ErrBadFrac,
	}
	for i := range want {
		w, g := want[i], got[i]
		tag := fmt.Sprintf("%s req[%d] %s", label, i, reqs[i].Kind)
		if (w.Err == nil) != (g.Err == nil) {
			t.Fatalf("%s: single err=%v, router err=%v", tag, w.Err, g.Err)
		}
		if w.Err != nil {
			// Same typed error on both routes, not just "an error".
			for name, sentinel := range sentinels {
				if errors.Is(w.Err, sentinel) != errors.Is(g.Err, sentinel) {
					t.Fatalf("%s: %s identity diverged: single err=%v, router err=%v", tag, name, w.Err, g.Err)
				}
			}
			continue
		}
		if w.IsBool != g.IsBool || w.Bool != g.Bool {
			t.Fatalf("%s: single bool=(%v,%v), router bool=(%v,%v)", tag, w.IsBool, w.Bool, g.IsBool, g.Bool)
		}
		if !slices.Equal(w.OIDs, g.OIDs) {
			t.Fatalf("%s: single OIDs=%v, router OIDs=%v", tag, w.OIDs, g.OIDs)
		}
		if len(w.Pairs) != len(g.Pairs) {
			t.Fatalf("%s: single has %d pair sets, router %d", tag, len(w.Pairs), len(g.Pairs))
		}
		for oid, ws := range w.Pairs {
			if !slices.Equal(ws, g.Pairs[oid]) {
				t.Fatalf("%s: pairs[%d]: single=%v router=%v", tag, oid, ws, g.Pairs[oid])
			}
		}
	}
}

// singleAnswers evaluates the suite once on a plain engine — the oracle
// every shard configuration is compared against.
func singleAnswers(t *testing.T, store *mod.Store, reqs []engine.Request) []engine.Result {
	t.Helper()
	want, err := engine.New(0).DoBatch(context.Background(), store, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestRouterEquivalenceLocal(t *testing.T) {
	store, trs := buildStore(t, equivN, equivR, equivSeed)
	reqs := equivRequests(trs)
	want := singleAnswers(t, store, reqs)
	// The far2 rows test a pruned target only if far2 is one.
	far2 := engine.Request{Kind: engine.KindUQ11, QueryOID: trs[0].OID, Tb: equivTb, Te: equivTe, OID: trs[len(trs)-4].OID}
	if res := singleAnswers(t, store, []engine.Request{far2})[0]; res.Err != nil || res.Bool {
		t.Fatalf("far2 = %d is a possible NN of the query (%v, %v): pick a pruned target", far2.OID, res.Bool, res.Err)
	}
	far2Row := slices.IndexFunc(reqs, func(r engine.Request) bool { return r.OID == far2.OID })
	for _, shards := range []int{1, 2, 4, 8} {
		router, err := cluster.NewLocalCluster(store, shards, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := router.DoBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, fmt.Sprintf("local/%d", shards), reqs, want, got)
		if got[far2Row].Explain.MemoHit {
			t.Fatalf("local/%d: far2 = %d was in the gathered union already: the row tests no rebuild", shards, far2.OID)
		}
	}
}

// TestRouterEquivalenceLocalDo routes each request through the one-shot
// Do path (no batch caches) on one shard count, so the per-call gather is
// exercised too.
func TestRouterEquivalenceLocalDo(t *testing.T) {
	store, trs := buildStore(t, 200, equivR, equivSeed)
	reqs := equivRequests(trs)
	want := singleAnswers(t, store, reqs)
	router, err := cluster.NewLocalCluster(store, 4, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]engine.Result, len(reqs))
	for i, req := range reqs {
		got[i], _ = router.Do(context.Background(), req)
	}
	checkSame(t, "local-do/4", reqs, want, got)
}

// TestRouterEquivalenceOffHashLayout routes over shards whose contents
// are not where Hash would put them: every object lives on the shard
// after the one Hash names. Shard contents are data, so a point lookup
// that misses on the shard Hash locates must fall back to a broadcast,
// and the answers must still be the single store's.
func TestRouterEquivalenceOffHashLayout(t *testing.T) {
	store, trs := buildStore(t, 300, equivR, equivSeed)
	reqs := equivRequests(trs)
	want := singleAnswers(t, store, reqs)
	for _, k := range []int{3, 5} {
		stores := make([]*mod.Store, k)
		for i := range stores {
			st, err := mod.NewStore(store.Spec())
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = st
		}
		for _, tr := range trs {
			if err := stores[(cluster.Hash{}.Locate(tr.OID, k)+1)%k].Insert(tr); err != nil {
				t.Fatal(err)
			}
		}
		shards := make([]cluster.Shard, k)
		for i, st := range stores {
			shards[i] = cluster.NewLocalShard(fmt.Sprintf("off-%d", i), st)
		}
		router, err := cluster.NewRouter(context.Background(), shards, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := router.DoBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, fmt.Sprintf("off-hash/%d", k), reqs, want, got)
	}
}

// TestRouterEquivalenceTiny covers the degenerate shapes: more shards
// than objects (empty shards must bound nothing and survive nothing, not
// wedge the exchange).
func TestRouterEquivalenceTiny(t *testing.T) {
	store, trs := buildStore(t, 3, equivR, equivSeed)
	reqs := equivRequests(trs)
	want := singleAnswers(t, store, reqs)
	router, err := cluster.NewLocalCluster(store, 8, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := router.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, "tiny/8", reqs, want, got)
}

// TestRouterEquivalenceAllThreshold covers the whole-MOD threshold query
// (UQ33 with 0 < P < 1), whose per-member probability integration makes
// it orders of magnitude heavier than every other request: same
// 500-trajectory seed, a sparser
// uncertainty radius so the 4r zone stays testable in CI time, across a
// local and a remote configuration (the main matrix covers grid).
func TestRouterEquivalenceAllThreshold(t *testing.T) {
	store, trs := buildStore(t, equivN, 0.1, equivSeed)
	reqs := []engine.Request{
		{Kind: engine.KindUQ33, QueryOID: trs[0].OID, Tb: equivTb, Te: equivTe, P: 0.1, X: 0.2},
		// Four UQ31 members in this short window, two of them answers.
		{Kind: engine.KindUQ33, QueryOID: trs[2].OID, Tb: 0, Te: 4, P: 0.4, X: 0.3},
		{Kind: engine.KindUQ13, QueryOID: trs[0].OID, Tb: equivTb, Te: equivTe, OID: trs[1].OID, P: 0.3, X: 0.4},
	}
	want := singleAnswers(t, store, reqs)

	local, err := cluster.NewLocalCluster(store, 4, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := local.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, "allthresh-local/4", reqs, want, got)

	remote, err := cluster.NewRouter(context.Background(),
		startShardServers(t, store, 2, cluster.Hash{}, cluster.RemoteOptions{}), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err = remote.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, "allthresh-remote/2", reqs, want, got)
}

// startShardServers splits the store and serves each partition from an
// in-process modserver over real TCP, returning the remote shard set.
func startShardServers(t testing.TB, store *mod.Store, n int, part cluster.Hash, opts cluster.RemoteOptions) []cluster.Shard {
	t.Helper()
	stores, err := cluster.SplitStore(store, n, part)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]cluster.Shard, n)
	for i, st := range stores {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := modserver.NewServerWith(st, nil, modserver.Options{})
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		remote := cluster.NewRemoteShardWith(fmt.Sprintf("remote-%d", i), l.Addr().String(), opts)
		t.Cleanup(func() { remote.Close() })
		shards[i] = remote
	}
	return shards
}

func TestRouterEquivalenceRemote(t *testing.T) {
	store, trs := buildStore(t, equivN, equivR, equivSeed)
	reqs := equivRequests(trs)
	want := singleAnswers(t, store, reqs)
	for _, shards := range []int{1, 2, 4, 8} {
		router, err := cluster.NewRouter(context.Background(),
			startShardServers(t, store, shards, cluster.Hash{}, cluster.RemoteOptions{}), cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := router.DoBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, fmt.Sprintf("remote/%d", shards), reqs, want, got)
	}
}

// TestRouterMixedShardKinds routes over a half-local, half-remote shard
// set: the Shard interface is the contract, not the transport.
func TestRouterMixedShardKinds(t *testing.T) {
	store, trs := buildStore(t, 200, equivR, equivSeed)
	reqs := equivRequests(trs)
	want := singleAnswers(t, store, reqs)
	stores, err := cluster.SplitStore(store, 4, cluster.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]cluster.Shard, 4)
	for i, st := range stores {
		if i%2 == 0 {
			shards[i] = cluster.NewLocalShard(fmt.Sprintf("local-%d", i), st)
			continue
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := modserver.NewServerWith(st, nil, modserver.Options{})
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		remote := cluster.NewRemoteShard(fmt.Sprintf("remote-%d", i), l.Addr().String())
		t.Cleanup(func() { remote.Close() })
		shards[i] = remote
	}
	router, err := cluster.NewRouter(context.Background(), shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := router.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, "mixed/4", reqs, want, got)
}
