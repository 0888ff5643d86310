package cluster_test

// Router unit tests: cancellation promptness and goroutine hygiene
// (acceptance: a canceled router call returns promptly and leaks nothing
// under -race), Explain shard aggregation, partitioner behavior, and
// construction validation.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// cancelingShard cancels the call's context on its k-th phase-1 call, then
// answers that call as usual.
type cancelingShard struct {
	cluster.Shard
	k      int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (s *cancelingShard) Bounds(ctx context.Context, q *trajectory.Trajectory, tb, te float64, k int, where *textidx.Predicate) ([]float64, error) {
	if s.calls.Add(1) == s.k {
		s.cancel()
	}
	return s.Shard.Bounds(ctx, q, tb, te, k, where)
}

// TestRoutedPerObjectLoopStopsWhenCancelled: a routed ALLPAIRS runs one
// bound exchange per query object on the router engine's worker pool. A
// cancellation partway through must stop the loop — the shard sees at
// most one more exchange per worker — and return the context error with
// no partial pairs.
func TestRoutedPerObjectLoopStopsWhenCancelled(t *testing.T) {
	const n, k = 30, 4
	store, _ := buildStore(t, n, 0.5, 7)
	stores, err := cluster.SplitStore(store, 3, cluster.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		spy := &cancelingShard{Shard: cluster.NewLocalShard("b", stores[1]), k: k, cancel: cancel}
		shards := []cluster.Shard{cluster.NewLocalShard("a", stores[0]), spy, cluster.NewLocalShard("c", stores[2])}
		router, err := cluster.NewRouter(context.Background(), shards, cluster.Options{Engine: engine.New(workers)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := router.Do(ctx, engine.Request{Kind: engine.KindAllPairs, Tb: 0, Te: 30})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled ALLPAIRS returned %v, want context.Canceled", workers, err)
		}
		if len(res.Pairs) != 0 {
			t.Fatalf("workers=%d: cancelled ALLPAIRS returned %d partial pairs", workers, len(res.Pairs))
		}
		if got := spy.calls.Load(); got > k+int64(workers) {
			t.Fatalf("workers=%d: %d exchanges reached the shard after a cancel at the %dth of %d", workers, got, k, n)
		}
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
		_, err := shard.Spec(ctx)
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

// refineSpy wraps a Shard and counts its Refine calls.
type refineSpy struct {
	cluster.Shard
	refines *atomic.Int64
}

func (s refineSpy) Refine(ctx context.Context, id string, union *mod.Store, own []int64, req engine.Request) (engine.Result, error) {
	s.refines.Add(1)
	return s.Shard.Refine(ctx, id, union, own, req)
}

// TestRefineBuildsFromTheUnion: the exchange is the filter and the
// router's own engine only verifies. At rank 1, at rank 2 and after a
// filtered exchange, a routed whole-MOD answer equals the single
// engine's, no shard is asked to refine, the answer reports the union as
// its survivor set (a whole build, not Do's pruned re-index of the
// union) and as its refined domain, and ShardExplains still tile the
// fleet with what each shard pruned. The single-object kinds evaluate on
// the same whole build of the union.
func TestRefineBuildsFromTheUnion(t *testing.T) {
	store, trs := tagStore(t, 300, equivR, equivSeed)
	stores, err := cluster.SplitStore(store, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var refines atomic.Int64
	shards := make([]cluster.Shard, len(stores))
	for i, st := range stores {
		shards[i] = refineSpy{cluster.NewLocalShard(fmt.Sprintf("s%d", i), st), &refines}
	}
	router, err := cluster.NewRouter(context.Background(), shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := trs[0].OID
	avail := &textidx.Predicate{All: []string{"available"}}
	reqs := []engine.Request{
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindUQ41, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe, Where: avail},
	}
	// A zone member is a survivor, so the union holds it without a fetch.
	near := singleAnswers(t, store, reqs[:1])[0].OIDs[0]
	reqs = append(reqs,
		engine.Request{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near},
		engine.Request{Kind: engine.KindUQ13, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, X: 0.25},
		engine.Request{Kind: engine.KindNNAt, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, T: 15},
	)
	want := singleAnswers(t, store, reqs)
	for i, req := range reqs {
		got, err := router.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, "refine-from-union", reqs[i:i+1], want[i:i+1], []engine.Result{got})
		if n := refines.Load(); n != 0 {
			t.Fatalf("req[%d]: %d shard refines, want none", i, n)
		}
		ex := got.Explain
		if ex.Survivors != ex.Candidates || (req.Kind.IsWholeMODFilter() && ex.Refined != ex.Candidates) {
			t.Fatalf("req[%d]: survivors=%d refined=%d candidates=%d: not a whole build of the union", i, ex.Survivors, ex.Refined, ex.Candidates)
		}
		// The shards' candidates tile the (sub-)MOD minus the query, and
		// what they kept is exactly the union the router refined.
		fleet := store.Len() - 1
		if req.Where != nil {
			fleet = len(store.MatchingOIDs(req.Where))
			if req.Where.Matches(store.Tags(q)) {
				fleet--
			}
		}
		cands, surv := 0, 0
		for _, se := range ex.ShardExplains {
			cands, surv = cands+se.Candidates, surv+se.Survivors
		}
		if cands != fleet || surv != ex.Candidates || surv >= cands {
			t.Fatalf("req[%d]: shards kept %d of %d (fleet %d), union holds %d", i, surv, cands, fleet, ex.Candidates)
		}
	}
}

// TestRouterKeepsNoUnionInMemo: a routed request's union store lives for
// one request, and its processor never enters the engine's memo. On a
// router sharing its engine with an embedded store (as uncertnn -shards
// does), 80 routed UQ31s on distinct query objects — more than the memo's
// 64 entries — 10 routed UQ11s and a routed ALLPAIRS over the fleet leave
// the embedded entry in place: the embedded Do that follows is still a
// memo hit, which the least-recently-used eviction would have denied it
// had any routed processor entered the memo.
func TestRouterKeepsNoUnionInMemo(t *testing.T) {
	ctx := context.Background()
	store, trs := buildStore(t, 120, equivR, equivSeed)
	eng := engine.New(2)
	router, err := cluster.NewLocalCluster(store, 2, cluster.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	embedded := engine.Request{Kind: engine.KindUQ31, QueryOID: trs[0].OID, Tb: equivTb, Te: equivTe}
	if _, err := eng.Do(ctx, store, embedded); err != nil {
		t.Fatal(err)
	}
	var routed []engine.Request
	for _, tr := range trs[:80] {
		routed = append(routed, engine.Request{Kind: engine.KindUQ31, QueryOID: tr.OID, Tb: equivTb, Te: equivTe})
	}
	for _, tr := range trs[1:11] {
		routed = append(routed, engine.Request{Kind: engine.KindUQ11, QueryOID: trs[0].OID, Tb: equivTb, Te: equivTe, OID: tr.OID})
	}
	routed = append(routed, engine.Request{Kind: engine.KindAllPairs, Tb: equivTb, Te: equivTe})
	for _, req := range routed {
		res, err := router.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s q=%d: %v", req.Kind, req.QueryOID, err)
		}
		if req.Kind == engine.KindAllPairs && len(res.Pairs) < 120 {
			t.Fatalf("ALLPAIRS asked %d query objects, want 120", len(res.Pairs))
		}
	}
	res, err := eng.Do(ctx, store, embedded)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Explain.MemoHit {
		t.Fatal("the routed requests evicted the embedded memo entry")
	}
}

// writeCounter counts the request lines a client writes on one
// connection and keeps their bytes.
type writeCounter struct {
	net.Conn
	mu     *sync.Mutex
	writes *int
	sent   *bytes.Buffer
}

func (c writeCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	*c.writes += bytes.Count(p, []byte("\n"))
	c.sent.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestRoutedFilterRoundTrips pins the routed whole-MOD query's wire cost
// over real sockets: the query trajectory's get, then bounds and
// survivors on each of two shards — five request writes, and no gather
// or refine frame — with answers equal to the single engine's.
func TestRoutedFilterRoundTrips(t *testing.T) {
	store, trs := tagStore(t, 300, equivR, equivSeed)
	var (
		mu     sync.Mutex
		writes int
		sent   bytes.Buffer
	)
	dial := func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return writeCounter{conn, &mu, &writes, &sent}, nil
	}
	router, err := cluster.NewRouter(context.Background(),
		startShardServers(t, store, 2, cluster.Hash{}, cluster.RemoteOptions{Dialer: dial}), cluster.Options{})
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
		mu.Lock()
		writes = 0
		sent.Reset()
		mu.Unlock()
		got, err := router.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, "round-trips", reqs[i:i+1], want[i:i+1], []engine.Result{got})
		mu.Lock()
		n, wire := writes, sent.String()
		mu.Unlock()
		if n != 5 {
			t.Fatalf("req[%d]: %d request writes, want 5 (get, 2 x bounds, 2 x survivors)", i, n)
		}
		for _, phase := range []string{`"phase":"gather"`, `"phase":"refine"`} {
			if strings.Contains(wire, phase) {
				t.Fatalf("req[%d]: the router sent a %s frame", i, phase)
			}
		}
	}
}

// TestRemoteRefineStaysInProcess: a RemoteShard refines a union it is
// handed exactly as a LocalShard does, on the caller's engine: the same
// result for whole-MOD filters at rank 1, rank 2 and under a predicate,
// and not one byte written to the shard.
func TestRemoteRefineStaysInProcess(t *testing.T) {
	union, trs := tagStore(t, 120, equivR, equivSeed)
	var (
		mu     sync.Mutex
		writes int
		sent   bytes.Buffer
	)
	dial := func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return writeCounter{conn, &mu, &writes, &sent}, nil
	}
	remote := startShardServers(t, union, 1, cluster.Hash{}, cluster.RemoteOptions{Dialer: dial})[0]
	local := cluster.NewLocalShard("local", union)
	q := trs[0].OID
	own := union.OIDs()[1:60]
	for i, req := range []engine.Request{
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindUQ41, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe, Where: &textidx.Predicate{All: []string{"available"}}},
	} {
		want, err := local.Refine(context.Background(), "g", union, own, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.Refine(context.Background(), "g", union, own, req)
		if err != nil {
			t.Fatal(err)
		}
		// Only the two wall clocks may differ between the runs.
		got.Explain.Wall, want.Explain.Wall = 0, 0
		got.Explain.RefineWall, want.Explain.RefineWall = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("req[%d]: remote refine %+v, local %+v", i, got, want)
		}
		if len(want.OIDs) == 0 {
			t.Fatalf("req[%d]: an empty answer tests nothing", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if writes != 0 || sent.Len() != 0 {
		t.Fatalf("RemoteShard.Refine wrote %d lines (%d bytes) to the shard, want none", writes, sent.Len())
	}
}

// TestRouterProbabilityDeadline: a deadline reaches the P > 0 loop of a
// routed whole-MOD threshold. UQ33 with p = 0.4 integrates Eq. 5 for
// every UQ31 member (seconds uncut); under a 50 ms deadline the router's
// central refine answers context.DeadlineExceeded within a sample or so.
func TestRouterProbabilityDeadline(t *testing.T) {
	store, trs := buildStore(t, 60, equivR, 7)
	router, err := cluster.NewLocalCluster(store, 3, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err = router.Do(ctx, engine.Request{Kind: engine.KindUQ33, QueryOID: trs[0].OID, Tb: 17, Te: 27, P: 0.4, X: 0.3})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("routed UQ33 p=0.4 under a %v deadline: err = %v after %v", deadline, err, elapsed)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("deadline %v answered after %v", deadline, elapsed)
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
