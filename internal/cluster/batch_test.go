package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// countingShard counts the Get and Bounds calls a router makes on it.
type countingShard struct {
	cluster.Shard
	gets, bounds *atomic.Int64
}

func (s countingShard) Get(ctx context.Context, oid int64) (*trajectory.Trajectory, []string, error) {
	s.gets.Add(1)
	return s.Shard.Get(ctx, oid)
}

func (s countingShard) Bounds(ctx context.Context, q *trajectory.Trajectory, tb, te float64, k int, where *textidx.Predicate) ([]float64, error) {
	s.bounds.Add(1)
	return s.Shard.Bounds(ctx, q, tb, te, k, where)
}

// countingCluster splits store over k hash-placed local shards behind
// countingShards sharing one pair of counters.
func countingCluster(t *testing.T, store *mod.Store, k int, gets, bounds *atomic.Int64) *cluster.Router {
	t.Helper()
	stores, err := cluster.SplitStore(store, k, cluster.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]cluster.Shard, k)
	for i, st := range stores {
		shards[i] = countingShard{Shard: cluster.NewLocalShard(fmt.Sprintf("count-%d", i), st), gets: gets, bounds: bounds}
	}
	router, err := cluster.NewRouter(context.Background(), shards, cluster.Options{Engine: engine.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	return router
}

// TestUnknownOIDAsksEachShardOnce: an OID the located shard does not hold
// is looked for on the other shards only, so an unknown OID costs one Get
// per shard.
func TestUnknownOIDAsksEachShardOnce(t *testing.T) {
	store, trs := buildStore(t, 60, equivR, equivSeed)
	var gets, bounds atomic.Int64
	router := countingCluster(t, store, 4, &gets, &bounds)
	const unknown = 987654321
	for _, tc := range []struct {
		name string
		req  engine.Request
		want int64
	}{
		// The query trajectory: the located shard, then the other three.
		{"query", engine.Request{Kind: engine.KindUQ31, QueryOID: unknown, Tb: equivTb, Te: equivTe}, 4},
		// One Get finds the query trajectory; the target costs four.
		{"target", engine.Request{Kind: engine.KindUQ11, QueryOID: trs[0].OID, Tb: equivTb, Te: equivTe, OID: unknown}, 5},
	} {
		gets.Store(0)
		if _, err := router.Do(context.Background(), tc.req); err == nil {
			t.Fatalf("%s: an unknown OID answered", tc.name)
		}
		if n := gets.Load(); n != tc.want {
			t.Errorf("%s: %d Gets, want %d", tc.name, n, tc.want)
		}
	}
}

// dyingCtx reports context.Canceled from its after-th Err call on, and
// counts the calls; the counter is atomic because a router's build may
// check from more than one loop at once.
type dyingCtx struct {
	context.Context
	after int64
	calls atomic.Int64
}

func (c *dyingCtx) Err() error {
	if c.calls.Add(1) >= c.after {
		return context.Canceled
	}
	return nil
}

// TestBatchContract runs one table against Engine.DoBatch and a 3-shard
// Router.DoBatch: both keep engine.RunBatch's contract.
func TestBatchContract(t *testing.T) {
	store, trs := buildStore(t, 120, equivR, equivSeed)
	q, near := trs[0].OID, trs[1].OID
	reqs := []engine.Request{
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: 987654321},
		{Kind: engine.KindUQ41, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2},
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near},
		{Kind: engine.KindUQ31, QueryOID: trs[len(trs)/2].OID, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindUQ42, QueryOID: q, Tb: equivTb, Te: equivTe, K: 3},
		{Kind: engine.KindUQ41, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2, Where: &textidx.Predicate{All: []string{"bad tag"}}},
	}
	// The rows that fail, each with its own error only.
	failing := map[int]error{1: engine.ErrUnknownOID, 6: engine.ErrBadPredicate}
	var gets, bounds atomic.Int64
	topologies := []struct {
		name string
		run  func(ctx context.Context, reqs []engine.Request) ([]engine.Result, error)
	}{
		// A fresh engine per batch, so every run builds what the first did.
		{"engine", func(ctx context.Context, reqs []engine.Request) ([]engine.Result, error) {
			return engine.New(1).DoBatch(ctx, store, reqs)
		}},
		{"router", countingCluster(t, store, 3, &gets, &bounds).DoBatch},
	}
	for _, top := range topologies {
		t.Run(top.name, func(t *testing.T) {
			counted := &dyingCtx{Context: context.Background(), after: math.MaxInt64}
			full, err := top.run(counted, reqs)
			if err != nil || len(full) != len(reqs) {
				t.Fatalf("uncanceled batch: %d results, %v", len(full), err)
			}
			for i, res := range full {
				if want, fails := failing[i]; fails != (res.Err != nil) || fails && !errors.Is(res.Err, want) {
					t.Fatalf("row %d (%s): err %v, want %v", i, reqs[i].Kind, res.Err, want)
				}
			}
			checks := counted.calls.Load()
			mid := false
			for _, n := range []int64{1, 2, checks / 4, checks / 2, 3 * checks / 4, checks} {
				dying := &dyingCtx{Context: context.Background(), after: max(n, 1)}
				got, err := top.run(dying, reqs)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("death at check %d of %d: err %v, want context.Canceled", n, checks, err)
				}
				if len(got) >= len(reqs) {
					t.Fatalf("death at check %d of %d: %d results, want a prefix", n, checks, len(got))
				}
				mid = mid || len(got) > 0
				for i, res := range got {
					if !sameAnswer(res, full[i]) {
						t.Fatalf("death at check %d: row %d answered %+v, the uncanceled batch %+v", n, i, res, full[i])
					}
				}
			}
			if !mid {
				t.Fatalf("no death among %d checks left a non-empty prefix", checks)
			}
		})
	}

	// Two ranks on one Key: one bound exchange at the deeper, and the
	// second member reuses its processor.
	ranked := []engine.Request{
		{Kind: engine.KindUQ41, QueryOID: q, Tb: equivTb, Te: equivTe, K: 3},
		{Kind: engine.KindUQ41, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2},
	}
	for _, top := range topologies {
		bounds.Store(0)
		got, err := top.run(context.Background(), ranked)
		if err != nil || got[0].Err != nil || got[1].Err != nil {
			t.Fatalf("%s: %v / %v / %v", top.name, err, got[0].Err, got[1].Err)
		}
		if !got[1].Explain.MemoHit {
			t.Errorf("%s: the k = 2 member rebuilt its processor", top.name)
		}
		if top.name == "router" {
			if n := bounds.Load(); n != 3 {
				t.Errorf("router: %d Bounds calls on 3 shards, want one bound exchange", n)
			}
		}
	}
}

// sameAnswer compares two results' answers and error presence.
func sameAnswer(a, b engine.Result) bool {
	return a.IsBool == b.IsBool && a.Bool == b.Bool && (a.Err == nil) == (b.Err == nil) &&
		fmt.Sprint(a.OIDs) == fmt.Sprint(b.OIDs) && fmt.Sprint(a.Pairs) == fmt.Sprint(b.Pairs)
}
