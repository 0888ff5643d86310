package cluster_test

// Chaos tests for the fault-tolerant serving path: a seeded fault
// injector sits under one shard's transport and the router must either
// absorb the fault through the RemoteShard retry layer (exact answer) or
// — when built Degraded — merge the shards it can reach and name the
// missing one in Explain. A scatter must never hang and a cancel must
// unwind promptly without leaking the retry machinery.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/mod"
	"repro/internal/modserver"
	"repro/internal/trajectory"
)

// faultCluster serves store from n modserver shards over TCP, routing
// shard faultIdx's connections through a fault injector seeded with seed
// (initially fault-free). Returns the router, the injector, the per-shard stores,
// and the shard addresses.
func faultCluster(t *testing.T, store *mod.Store, n, faultIdx int, seed int64, degraded bool) (*cluster.Router, *faultinject.Injector, []*mod.Store, []string) {
	t.Helper()
	stores, err := cluster.SplitStore(store, n, cluster.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(seed, faultinject.Plan{})
	shards := make([]cluster.Shard, n)
	addrs := make([]string, n)
	for i, st := range stores {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := modserver.NewServerWith(st, nil, modserver.Options{})
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = l.Addr().String()
		var opts cluster.RemoteOptions
		if i == faultIdx {
			opts.Dialer = in.Dial
		}
		remote := cluster.NewRemoteShardWith(fmt.Sprintf("s%d", i), addrs[i], opts)
		t.Cleanup(func() { remote.Close() })
		shards[i] = remote
	}
	router, err := cluster.NewRouter(context.Background(), shards, cluster.Options{Degraded: degraded})
	if err != nil {
		t.Fatal(err)
	}
	return router, in, stores, addrs
}

// pickQuery returns a query OID homed on a healthy shard, so the query
// trajectory itself stays reachable while shard faultIdx misbehaves.
func pickQuery(t *testing.T, stores []*mod.Store, faultIdx int) int64 {
	t.Helper()
	for i, st := range stores {
		if i == faultIdx {
			continue
		}
		if oids := st.OIDs(); len(oids) > 0 {
			return oids[0]
		}
	}
	t.Fatal("no healthy shard holds any object")
	return 0
}

// TestFaultMatrixRetryOrDegraded drives the acceptance matrix: with
// drop, delay, or dial-error faults on one shard of four, every query
// either succeeds exactly (retry absorbed the fault) or returns a
// partial result whose Explain names the missing shard — never a hung
// scatter, never a bare error.
func TestFaultMatrixRetryOrDegraded(t *testing.T) {
	store, _ := buildStore(t, 160, 0.5, 11)
	cases := []struct {
		name string
		plan faultinject.Plan
	}{
		{"drop-always", faultinject.Plan{DropRate: 1}},
		{"drop-flaky", faultinject.Plan{DropRate: 0.4}},
		// Dial faults pair with a drop so the connection cached at router
		// construction dies and reconnects actually hit the dial path.
		{"dial-error", faultinject.Plan{DialErrorRate: 1, DropRate: 1}},
		{"dial-flaky", faultinject.Plan{DialErrorRate: 0.5, DropRate: 0.3}},
		// A slow shard: there is no per-attempt timeout, so every query
		// waits for it and answers exactly. The plan's Delay bounds the
		// wall time.
		{"delay-past-timeout", faultinject.Plan{Delay: 100 * time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const faultIdx = 2
			router, in, stores, _ := faultCluster(t, store, 4, faultIdx, 7, true)
			qOID := pickQuery(t, stores, faultIdx)
			req := engine.Request{Kind: engine.KindUQ31, QueryOID: qOID, Tb: 0, Te: 30}
			exact, err := engine.New(0).Do(context.Background(), store, req)
			if err != nil {
				t.Fatal(err)
			}

			in.SetPlan(tc.plan)
			for i := 0; i < 4; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res, err := router.Do(ctx, req)
				cancel()
				if err != nil {
					t.Fatalf("query %d under %s: %v (neither retry success nor degraded)", i, tc.name, err)
				}
				if res.Explain.Degraded {
					if !reflect.DeepEqual(res.Explain.MissingShards, []string{"s2"}) {
						t.Fatalf("query %d degraded with MissingShards = %v, want [s2]", i, res.Explain.MissingShards)
					}
					continue
				}
				if !reflect.DeepEqual(res.OIDs, exact.OIDs) {
					t.Fatalf("query %d non-degraded answer %v != exact %v", i, res.OIDs, exact.OIDs)
				}
			}
			t.Logf("%s: injector stats %+v", tc.name, in.Stats())
		})
	}
}

// TestPartitionedShardDegradedAnswer pins the degraded merge rule: with
// one shard of four fully partitioned, the answer equals a single-store
// run over the union of the three reachable partitions, and the Explain
// names the lost shard. Healing the partition restores exact answers.
func TestPartitionedShardDegradedAnswer(t *testing.T) {
	store, _ := buildStore(t, 160, 0.5, 11)
	const faultIdx = 1
	router, in, stores, addrs := faultCluster(t, store, 4, faultIdx, 7, true)
	qOID := pickQuery(t, stores, faultIdx)
	req := engine.Request{Kind: engine.KindUQ31, QueryOID: qOID, Tb: 0, Te: 30}

	exact, err := engine.New(0).Do(context.Background(), store, req)
	if err != nil {
		t.Fatal(err)
	}
	// The expected degraded answer: a single store holding only the
	// reachable shards' objects.
	healthy, err := mod.NewStore(store.Spec())
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stores {
		if i == faultIdx {
			continue
		}
		if err := healthy.InsertAll(st.All()); err != nil {
			t.Fatal(err)
		}
	}
	wantDegraded, err := engine.New(0).Do(context.Background(), healthy, req)
	if err != nil {
		t.Fatal(err)
	}

	in.Partition(addrs[faultIdx])
	res, err := router.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("partitioned query: %v", err)
	}
	if !res.Explain.Degraded || !reflect.DeepEqual(res.Explain.MissingShards, []string{"s1"}) {
		t.Fatalf("explain = degraded=%v missing=%v, want degraded missing [s1]",
			res.Explain.Degraded, res.Explain.MissingShards)
	}
	if !reflect.DeepEqual(res.OIDs, wantDegraded.OIDs) {
		t.Fatalf("degraded answer %v != healthy-union answer %v", res.OIDs, wantDegraded.OIDs)
	}

	in.Heal(addrs[faultIdx])
	res, err = router.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.Degraded {
		t.Fatalf("healed query still degraded: missing=%v", res.Explain.MissingShards)
	}
	if !reflect.DeepEqual(res.OIDs, exact.OIDs) {
		t.Fatalf("healed answer %v != exact %v", res.OIDs, exact.OIDs)
	}
}

// TestStrictRouterShardUnavailable: without Degraded, a lost shard fails
// the call — promptly, with the typed unavailability error carrying the
// shard's identity (the satellite fix for the raw net.OpError leak).
func TestStrictRouterShardUnavailable(t *testing.T) {
	store, _ := buildStore(t, 120, 0.5, 11)
	const faultIdx = 0
	router, in, stores, addrs := faultCluster(t, store, 4, faultIdx, 7, false)
	qOID := pickQuery(t, stores, faultIdx)
	// Partition: existing connections reset and new dials refuse, so the
	// next call fails through the typed dial path after its retries.
	in.Partition(addrs[faultIdx])

	_, err := router.Do(context.Background(), engine.Request{Kind: engine.KindUQ31, QueryOID: qOID, Tb: 0, Te: 30})
	if err == nil {
		t.Fatal("strict router answered with a dead shard")
	}
	if !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("strict failure = %v, want ErrShardUnavailable", err)
	}
	var se *cluster.ShardUnavailableError
	if !errors.As(err, &se) || se.Shard != faultIdx || se.Name != "s0" {
		t.Fatalf("unavailable detail = %+v", se)
	}
}

// TestDialRefusedTyped pins the satellite directly on the shard: a
// refused lazy dial surfaces as ShardUnavailableError, not a raw
// net.OpError.
func TestDialRefusedTyped(t *testing.T) {
	// A listener we immediately close: the port is real but refuses.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	shard := cluster.NewRemoteShard("dead", addr)
	defer shard.Close()
	_, err = shard.Spec(context.Background())
	if !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("dead-port Spec = %v, want ErrShardUnavailable", err)
	}
	var se *cluster.ShardUnavailableError
	if !errors.As(err, &se) || se.Name != "dead" {
		t.Fatalf("unavailable detail = %+v", se)
	}
}

// TestRefusalKeepsTheConnection: a shard's coded refusal is read in full
// and leaves the stream in sync, so the shard keeps its connection — a
// refused ingest, then Spec and Owns, ride one dial. A refusal the server
// closes the connection after (a request line over its cap) costs the
// next call a fresh dial, so an ingest, which is never retried, still
// lands.
func TestRefusalKeepsTheConnection(t *testing.T) {
	store, trs := buildStore(t, 40, 0.5, 11)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := modserver.NewServerWith(store, nil, modserver.Options{MaxLineBytes: 4096})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	dials := 0
	counting := func(addr string) (net.Conn, error) {
		dials++
		return net.Dial("tcp", addr)
	}
	shard := cluster.NewRemoteShardWith("s", l.Addr().String(), cluster.RemoteOptions{Dialer: counting})
	defer shard.Close()
	ctx := context.Background()
	short := mod.Update{OID: 9001, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: 1}}}
	if _, err := shard.Ingest(ctx, []mod.Update{short}); !errors.Is(err, mod.ErrShortInsert) {
		t.Fatalf("one-vertex insert = %v, want ErrShortInsert", err)
	}
	if _, err := shard.Spec(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Owns(ctx, []int64{trs[0].OID}); err != nil {
		t.Fatal(err)
	}
	if dials != 1 {
		t.Fatalf("a refused ingest, Spec and Owns dialed %d times, want 1", dials)
	}

	huge := mod.Update{OID: 9002}
	for i := 0; i < 1000; i++ {
		huge.Verts = append(huge.Verts, trajectory.Vertex{X: float64(i), Y: 1, T: float64(i)})
	}
	if _, err := shard.Ingest(ctx, []mod.Update{huge}); err == nil {
		t.Fatal("an ingest line over the server's cap was accepted")
	}
	two := mod.Update{OID: 9003, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 10}}}
	if _, err := shard.Ingest(ctx, []mod.Update{two}); err != nil {
		t.Fatalf("ingest after a refusal that closed the connection: %v", err)
	}
	if dials != 2 {
		t.Fatalf("dialed %d times, want 2", dials)
	}
}

// TestCallerDeadlineIsNoRetry: when the caller's own deadline ends a call
// against a shard that never replies, the call returns the context error
// after one dial and the OnRetry hook counts nothing — no retry was made.
func TestCallerDeadlineIsNoRetry(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close() // read nothing, answer nothing
		}
	}()
	dials, retries := 0, 0
	counting := func(addr string) (net.Conn, error) {
		dials++
		return net.Dial("tcp", addr)
	}
	shard := cluster.NewRemoteShardWith("mute", l.Addr().String(), cluster.RemoteOptions{
		Dialer:  counting,
		OnRetry: func(string, int, error) { retries++ },
	})
	defer shard.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := shard.Spec(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Spec against a mute shard = %v, want context.DeadlineExceeded", err)
	}
	if dials != 1 || retries != 0 {
		t.Fatalf("dials = %d, OnRetry calls = %d; want 1 and 0", dials, retries)
	}
}

// TestRetryRecoversFlakyDial: a dial that fails twice before it connects
// is absorbed by the three-try retry budget — every call still succeeds.
func TestRetryRecoversFlakyDial(t *testing.T) {
	store, _ := buildStore(t, 40, 0.5, 11)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := modserver.NewServerWith(store, nil, modserver.Options{})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	dials := 0
	flaky := func(addr string) (net.Conn, error) {
		if dials++; dials%3 != 0 {
			return nil, fmt.Errorf("dial %d: %w", dials, syscall.ECONNREFUSED)
		}
		return net.Dial("tcp", addr)
	}
	shard := cluster.NewRemoteShardWith("flaky", l.Addr().String(), cluster.RemoteOptions{Dialer: flaky})
	defer shard.Close()
	for i := 0; i < 8; i++ {
		spec, err := shard.Spec(context.Background())
		if err != nil {
			t.Fatalf("flaky Spec %d = %v", i, err)
		}
		if spec != store.Spec() {
			t.Fatalf("Spec = %+v, want %+v", spec, store.Spec())
		}
		// Poison the cached connection so every iteration redials.
		shard.Close()
	}
	if dials != 24 {
		t.Fatalf("8 calls dialed %d times, want 24 (two refusals and a connect each)", dials)
	}
}

// TestCancelMidRetry: canceling the caller's context during the backoff
// of a doomed retry loop returns promptly with the context error and
// leaks no goroutines. The first dial fails and cancels, so the cancel
// lands in the backoff after it; should the loop still reach its second
// dial, that dial waits for the cancel before failing, so the caller's
// context wins either way.
func TestCancelMidRetry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dials := 0
	refuse := func(string) (net.Conn, error) {
		if dials++; dials == 1 {
			go cancel()
		} else {
			<-ctx.Done()
		}
		return nil, errors.New("dial refused")
	}
	shard := cluster.NewRemoteShardWith("doomed", "127.0.0.1:1", cluster.RemoteOptions{Dialer: refuse})
	defer shard.Close()

	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := shard.Spec(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled retry returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled retry did not return promptly")
	}
	if dials > 2 {
		t.Fatalf("the loop dialed %d times after its context was canceled", dials)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across cancel: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDegradedAllShardsDownFails: degraded serving is not "answer from
// nothing" — losing every shard is still an error.
func TestDegradedAllShardsDownFails(t *testing.T) {
	store, _ := buildStore(t, 40, 0.5, 11)
	router, in, stores, addrs := faultCluster(t, store, 1, 0, 7, true)
	qOID := stores[0].OIDs()[0]
	in.Partition(addrs[0])
	_, err := router.Do(context.Background(), engine.Request{Kind: engine.KindUQ31, QueryOID: qOID, Tb: 0, Te: 30})
	if err == nil {
		t.Fatal("degraded router answered with zero reachable shards")
	}
	if !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("total loss = %v, want ErrShardUnavailable", err)
	}
}
