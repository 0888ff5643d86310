package cluster_test

// Router unit tests: cancellation promptness and goroutine hygiene
// (acceptance: a canceled router call returns promptly and leaks nothing
// under -race), Explain shard aggregation, partitioner behavior, and
// construction validation.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/textidx"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// blockingShard wraps a Shard and parks phase-1 calls until the caller's
// context dies — the adversarial mid-scatter stall.
type blockingShard struct {
	cluster.Shard
	entered chan struct{}
}

func (s *blockingShard) Bounds(ctx context.Context, q *trajectory.Trajectory, tb, te float64, k int, where *textidx.Predicate) ([]float64, error) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestRouterCancelMidScatter parks one shard inside phase 1, cancels the
// context mid-scatter, and requires the router call to return the context
// error promptly — with every scatter goroutine reaped (checked by
// goroutine count, which -race turns into a leak detector too).
func TestRouterCancelMidScatter(t *testing.T) {
	store, trs := buildStore(t, 50, 0.5, 7)
	stores, err := cluster.SplitStore(store, 3, cluster.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	shards := []cluster.Shard{
		cluster.NewLocalShard("a", stores[0]),
		&blockingShard{Shard: cluster.NewLocalShard("b", stores[1]), entered: entered},
		cluster.NewLocalShard("c", stores[2]),
	}
	router, err := cluster.NewRouter(context.Background(), shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := router.Do(ctx, engine.Request{Kind: engine.KindUQ31, QueryOID: trs[0].OID, Tb: 0, Te: 30})
		done <- err
	}()
	<-entered // the scatter is live and one shard is parked
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled router call returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled router call did not return promptly")
	}
	// Every scatter goroutine must be reaped once the call returns.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked across cancellation: %d before, %d after", before, n)
	}
}

// TestRouterExpiredDeadline requires an already-expired deadline to fail
// fast with the context error, before any shard work.
func TestRouterExpiredDeadline(t *testing.T) {
	store, trs := buildStore(t, 50, 0.5, 7)
	router, err := cluster.NewLocalCluster(store, 2, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	_, err = router.Do(ctx, engine.Request{Kind: engine.KindUQ31, QueryOID: trs[0].OID, Tb: 0, Te: 30})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("expired-deadline call took %v", d)
	}
}

// TestRemoteShardCancelPrompt blocks a RemoteShard call on a server that
// accepts and then never replies; canceling the context must unblock it
// promptly (the watchdog closes the connection) and report the context
// error, not wire noise.
func TestRemoteShardCancelPrompt(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Read and drop; never answer.
			buf := make([]byte, 4096)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}
	}()
	shard := cluster.NewRemoteShard("mute", l.Addr().String())
	defer shard.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := shard.Len(ctx)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach the blocked read
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled remote call returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled remote call did not return promptly")
	}
}

// TestRouterExplainAggregation pins the provenance contract: a routed
// result reports the cluster size and one shard entry whose candidate
// counts tile the population, while single-engine results leave the shard
// fields zero.
func TestRouterExplainAggregation(t *testing.T) {
	store, trs := buildStore(t, 120, 0.5, 11)
	req := engine.Request{Kind: engine.KindUQ31, QueryOID: trs[0].OID, Tb: 0, Te: 30}

	single, err := engine.New(0).Do(context.Background(), store, req)
	if err != nil {
		t.Fatal(err)
	}
	if single.Explain.Shards != 0 || single.Explain.ShardExplains != nil {
		t.Fatalf("single-engine explain grew shard fields: %+v", single.Explain)
	}

	router, err := cluster.NewLocalCluster(store, 3, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	routed, err := router.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ex := routed.Explain
	if ex.Shards != 3 || len(ex.ShardExplains) != 3 {
		t.Fatalf("routed explain: Shards=%d, %d entries, want 3/3", ex.Shards, len(ex.ShardExplains))
	}
	totalCands, totalSurv := 0, 0
	for _, se := range ex.ShardExplains {
		totalCands += se.Candidates
		totalSurv += se.Survivors
	}
	// Shard candidate counts tile the non-query population: the query's
	// own shard excludes it, the others see their full partition.
	if totalCands != store.Len()-1 {
		t.Fatalf("shard candidates sum to %d, want %d", totalCands, store.Len()-1)
	}
	if totalSurv < len(routed.OIDs) {
		t.Fatalf("shard survivors %d < answer size %d", totalSurv, len(routed.OIDs))
	}
}

// unionSpy wraps a Shard and keeps every union store its Refine is handed.
type unionSpy struct {
	cluster.Shard
	mu     *sync.Mutex
	unions *[]*mod.Store
}

func (s unionSpy) Refine(ctx context.Context, id string, union *mod.Store, own []int64, req engine.Request) (engine.Result, error) {
	s.mu.Lock()
	*s.unions = append(*s.unions, union)
	s.mu.Unlock()
	return s.Shard.Refine(ctx, id, union, own, req)
}

// TestRefineBuildsFromTheUnion: the exchange is the filter and the refine
// only verifies. At rank 1, at rank 2 and after a filtered exchange, a
// routed whole-MOD answer equals the single engine's, reports the union as
// its survivor set (what each shard pruned stays in ShardExplains), and no
// shard ever builds an index over the union it was handed.
func TestRefineBuildsFromTheUnion(t *testing.T) {
	store, trs := tagStore(t, 300, equivR, equivSeed)
	stores, err := cluster.SplitStore(store, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		unions []*mod.Store
	)
	shards := make([]cluster.Shard, len(stores))
	for i, st := range stores {
		shards[i] = unionSpy{cluster.NewLocalShard(fmt.Sprintf("s%d", i), st), &mu, &unions}
	}
	router, err := cluster.NewRouter(context.Background(), shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := trs[0].OID
	reqs := []engine.Request{
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindUQ41, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe, Where: &textidx.Predicate{All: []string{"available"}}},
	}
	want := singleAnswers(t, store, reqs)
	for i, req := range reqs {
		unions = unions[:0]
		got, err := router.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, "refine-from-union", reqs[i:i+1], want[i:i+1], []engine.Result{got})
		if len(unions) != len(shards) {
			t.Fatalf("req[%d]: %d refines for %d shards", i, len(unions), len(shards))
		}
		ex := got.Explain
		if ex.Survivors != ex.Candidates || ex.Candidates != unions[0].Len()-1 {
			t.Fatalf("req[%d]: survivors=%d candidates=%d over a union of %d objects and the query", i, ex.Survivors, ex.Candidates, unions[0].Len()-1)
		}
		cands, surv := 0, 0
		for _, se := range ex.ShardExplains {
			cands, surv = cands+se.Candidates, surv+se.Survivors
		}
		if surv != ex.Candidates || surv >= cands {
			t.Fatalf("req[%d]: shards kept %d of %d, union holds %d: the exchange's pruning is not what ShardExplains reports", i, surv, cands, ex.Candidates)
		}
		for _, u := range unions {
			if st := u.IndexStats(); st != (mod.IndexStats{}) {
				t.Fatalf("req[%d]: a refine built an index over its union: %+v", i, st)
			}
		}
	}
}

// TestPartitioners pins placement invariants: in-range deterministic
// placement for both schemes, OID-locatability for hash, and split
// completeness.
func TestPartitioners(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(3), 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []cluster.Partitioner{cluster.Hash{}, cluster.Grid{}, cluster.Grid{CellSize: 2.5}} {
		counts := make(map[int]int)
		for _, tr := range trs {
			i := part.Place(tr, 4)
			if i < 0 || i >= 4 {
				t.Fatalf("%s placed OID %d out of range: %d", part.Name(), tr.OID, i)
			}
			if j := part.Place(tr, 4); j != i {
				t.Fatalf("%s is nondeterministic for OID %d", part.Name(), tr.OID)
			}
			counts[i]++
		}
		if len(counts) < 2 {
			t.Fatalf("%s used %d of 4 shards for 200 trajectories", part.Name(), len(counts))
		}
	}
	h := cluster.Hash{}
	for _, tr := range trs[:20] {
		if h.Locate(tr.OID, 4) != h.Place(tr, 4) {
			t.Fatalf("hash Locate disagrees with Place for OID %d", tr.OID)
		}
	}
	if (cluster.Hash{}).Locate(99, 1) != 0 {
		t.Fatal("single-shard locate must be 0")
	}
	if (cluster.Grid{}).Locate(99, 4) != -1 {
		t.Fatal("grid locate must be -1 (broadcast)")
	}

	store, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	stores, err := cluster.SplitStore(store, 4, cluster.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range stores {
		total += st.Len()
	}
	if total != store.Len() {
		t.Fatalf("split lost trajectories: %d of %d", total, store.Len())
	}
}

// TestNewRouterValidation covers construction errors: no shards, spec
// disagreement, nil-router calls.
func TestNewRouterValidation(t *testing.T) {
	if _, err := cluster.NewRouter(context.Background(), nil, cluster.Options{}); !errors.Is(err, cluster.ErrNoShards) {
		t.Fatalf("empty shard set: %v", err)
	}
	a, _ := mod.NewUniformStore(0.5)
	b, _ := mod.NewUniformStore(0.25)
	_, err := cluster.NewRouter(context.Background(), []cluster.Shard{
		cluster.NewLocalShard("a", a), cluster.NewLocalShard("b", b),
	}, cluster.Options{})
	if !errors.Is(err, cluster.ErrSpecMismatch) {
		t.Fatalf("spec mismatch: %v", err)
	}
	var r *cluster.Router
	if _, err := r.Do(context.Background(), engine.Request{Kind: engine.KindUQ31, Tb: 0, Te: 1}); !errors.Is(err, cluster.ErrNoRouter) {
		t.Fatalf("nil router Do: %v", err)
	}
	if _, err := r.DoBatch(context.Background(), nil); !errors.Is(err, cluster.ErrNoRouter) {
		t.Fatalf("nil router DoBatch: %v", err)
	}
}

// failingShard errors out of phase 1 immediately.
type failingShard struct{ cluster.Shard }

var errShardDown = errors.New("shard down")

func (s failingShard) Bounds(context.Context, *trajectory.Trajectory, float64, float64, int, *textidx.Predicate) ([]float64, error) {
	return nil, errShardDown
}

// TestScatterFailsFast: one shard failing instantly must surface its
// error without waiting out a slow sibling — the failure cancels the
// sibling's context, and the real error outranks the cancellation noise.
func TestScatterFailsFast(t *testing.T) {
	store, trs := buildStore(t, 40, 0.5, 7)
	stores, err := cluster.SplitStore(store, 2, cluster.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	slow := &blockingShard{Shard: cluster.NewLocalShard("slow", stores[0]), entered: make(chan struct{}, 1)}
	router, err := cluster.NewRouter(context.Background(), []cluster.Shard{
		slow,
		failingShard{cluster.NewLocalShard("down", stores[1])},
	}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = router.Do(context.Background(), engine.Request{Kind: engine.KindUQ31, QueryOID: trs[0].OID, Tb: 0, Te: 30})
	if !errors.Is(err, errShardDown) {
		t.Fatalf("got %v, want the failing shard's error", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("failure took %v; the slow sibling was waited out instead of canceled", d)
	}
}

// badBoundsShard returns a bounds vector of the wrong length.
type badBoundsShard struct{ cluster.Shard }

func (s badBoundsShard) Bounds(context.Context, *trajectory.Trajectory, float64, float64, int, *textidx.Predicate) ([]float64, error) {
	return []float64{1}, nil
}

// TestRouterProtocolError requires a malformed shard reply to surface as
// ErrProtocol with the shard named, not a silent wrong answer.
func TestRouterProtocolError(t *testing.T) {
	store, trs := buildStore(t, 30, 0.5, 7)
	stores, err := cluster.SplitStore(store, 2, cluster.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(context.Background(), []cluster.Shard{
		cluster.NewLocalShard("good", stores[0]),
		badBoundsShard{cluster.NewLocalShard("bad", stores[1])},
	}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = router.Do(context.Background(), engine.Request{Kind: engine.KindUQ31, QueryOID: trs[0].OID, Tb: 0, Te: 30})
	if !errors.Is(err, cluster.ErrProtocol) {
		t.Fatalf("got %v, want ErrProtocol", err)
	}
}

// TestLocalShardSurvivorsMatchCandidates pins the protocol identity the
// bound exchange is built on: sweeping a store against its own bounds
// reproduces the classic candidate pre-pass exactly.
func TestLocalShardSurvivorsMatchCandidates(t *testing.T) {
	store, trs := buildStore(t, 150, 0.5, 13)
	q := trs[0]
	want, _, _, _, err := prune.ZoneWhereCtx(context.Background(), store, q, 0, 30, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := prune.SliceBoundsWhere(context.Background(), store, q, 0, 30, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := prune.SurvivorsWithBoundsWhere(context.Background(), store, q, 0, 30, bounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, len(got))
	for i, tr := range got {
		ids[i] = tr.OID
	}
	if fmt.Sprint(want) != fmt.Sprint(ids) {
		t.Fatalf("self-bounded sweep diverged from Candidates:\n  want %v\n  got  %v", want, ids)
	}
	if stats.Survivors != len(want) {
		t.Fatalf("stats.Survivors=%d, want %d", stats.Survivors, len(want))
	}
}
