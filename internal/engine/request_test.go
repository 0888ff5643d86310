package engine

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/queries"
)

// allKinds is every kind the engine accepts, in declaration order.
func allKinds() []Kind {
	out := make([]Kind, len(kindTable))
	for i, e := range kindTable {
		out[i] = e.kind
	}
	return out
}

// TestRequestNormalize is the centralized window/parameter validation table:
// every kind rejects a degenerate window identically, ranked kinds reject
// k < 1, fraction kinds reject x outside [0, 1], every kind rejects p
// outside [0, 1], and only the Category 1/3 and fixed-time kinds take a
// probability bound p > 0.
func TestRequestNormalize(t *testing.T) {
	check := func(r Request) error {
		_, err := r.Normalize()
		return err
	}
	ranked := map[Kind]bool{
		KindUQ21: true, KindUQ22: true, KindUQ23: true,
		KindUQ41: true, KindUQ42: true, KindUQ43: true,
		KindRankAt: true, KindAllRankAt: true,
	}
	frac := map[Kind]bool{
		KindUQ13: true, KindUQ23: true, KindUQ33: true, KindUQ43: true,
	}
	prob := map[Kind]bool{
		KindUQ11: true, KindUQ12: true, KindUQ13: true, KindNNAt: true,
		KindUQ31: true, KindUQ32: true, KindUQ33: true, KindAllNNAt: true,
	}
	if n := len(allKinds()); n != 18 {
		t.Errorf("%d kinds, want 18", n)
	}
	for _, kind := range allKinds() {
		ok := Request{Kind: kind, QueryOID: 1, Tb: 0, Te: 60, K: 2, X: 0.5}
		if err := check(ok); err != nil {
			t.Errorf("%s: valid request rejected: %v", kind, err)
		}
		for _, w := range []struct{ tb, te float64 }{{60, 0}, {10, 10}, {0, -1}} {
			bad := ok
			bad.Tb, bad.Te = w.tb, w.te
			if err := check(bad); !errors.Is(err, ErrBadWindow) {
				t.Errorf("%s window [%g, %g]: err=%v, want ErrBadWindow", kind, w.tb, w.te, err)
			}
		}
		if ranked[kind] {
			bad := ok
			bad.K = 0
			if err := check(bad); !errors.Is(err, ErrBadRank) {
				t.Errorf("%s k=0: err=%v, want ErrBadRank", kind, err)
			}
		}
		if frac[kind] {
			bad := ok
			bad.X = 1.5
			if err := check(bad); !errors.Is(err, ErrBadFrac) {
				t.Errorf("%s x=1.5: err=%v, want ErrBadFrac", kind, err)
			}
		}
		for _, p := range []float64{0.5, 1} {
			withP := ok
			withP.P = p
			err := check(withP)
			if prob[kind] && err != nil {
				t.Errorf("%s p=%g: valid request rejected: %v", kind, p, err)
			}
			if !prob[kind] && !errors.Is(err, ErrBadKind) {
				t.Errorf("%s p=%g: err=%v, want ErrBadKind", kind, p, err)
			}
		}
		bad := ok
		bad.P = 1.5
		if err := check(bad); !errors.Is(err, ErrBadFrac) {
			t.Errorf("%s p=1.5: err=%v, want ErrBadFrac", kind, err)
		}
	}
	for _, k := range []Kind{"NOPE", "THRESH", "ALLTHRESH"} {
		if err := check(Request{Kind: k, Tb: 0, Te: 60}); !errors.Is(err, ErrBadKind) {
			t.Errorf("unknown kind %q: err=%v, want ErrBadKind", k, err)
		}
	}
	// Every route rejects the bad window before touching the store — no
	// silent empty answers.
	store, qOID := newStore(t, 20, 1)
	eng := New(2)
	if _, err := eng.Do(context.Background(), store, Request{Kind: KindUQ31, QueryOID: qOID, Tb: 60, Te: 0}); !errors.Is(err, ErrBadWindow) {
		t.Errorf("Do with tb > te: err=%v, want ErrBadWindow", err)
	}
}

// TestDoExplain: every kind reports the engine's worker count, and a
// repeated (query, window) reports the memo hit.
func TestDoExplain(t *testing.T) {
	store, qOID := newStore(t, 150, 13)
	eng := New(0)
	ctx := context.Background()
	qs := append(batchKinds(qOID), forQuery(qOID,
		Request{Kind: KindUQ11, OID: qOID + 3},
		Request{Kind: KindUQ12, OID: qOID + 3},
		Request{Kind: KindUQ22, OID: qOID + 4, K: 2},
		Request{Kind: KindNNAt, OID: qOID + 5, T: 20},
		Request{Kind: KindRankAt, OID: qOID + 5, T: 20, K: 2},
	)...)
	for _, q := range qs {
		res, err := eng.Do(ctx, store, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Kind, err)
		}
		if res.Explain.Workers != eng.Workers() {
			t.Fatalf("%s: explain workers %d != %d", q.Kind, res.Explain.Workers, eng.Workers())
		}
	}
	// Explain reports envelope reuse on the second identical request.
	res, err := eng.Do(ctx, store, Request{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Explain.MemoHit {
		t.Error("repeat request did not report a memo hit")
	}
	if res.Explain.Candidates == 0 || res.Explain.Survivors == 0 {
		t.Errorf("explain counters empty: %+v", res.Explain)
	}
}

// TestDoThresholdAndExtensions checks the Section 7 queries — the
// threshold query (UQ13/UQ33 with a probability bound), all-pairs and
// reverse — against their serial Processor counterparts.
func TestDoThresholdAndExtensions(t *testing.T) {
	store, qOID := newStore(t, 16, 17)
	eng := New(0)
	ctx := context.Background()
	proc, err := eng.ProcessorWhereCtx(context.Background(), store, qOID, 0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}

	table, err := proc.ProbabilityTable(context.Background(), queries.ThresholdConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantAll, err := table.ThresholdNNAll(0.3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Do(ctx, store, Request{Kind: KindUQ33, QueryOID: qOID, Tb: 0, Te: 60, P: 0.3, X: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.OIDs, wantAll) {
		t.Fatalf("UQ33 p=0.3: do=%v serial=%v", res.OIDs, wantAll)
	}

	target := proc.CandidateOIDs()[0]
	wantOne, err := table.ThresholdNN(target, 0.3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err = eng.Do(ctx, store, Request{Kind: KindUQ13, QueryOID: qOID, Tb: 0, Te: 60, OID: target, P: 0.3, X: 0.1})
	if err != nil || !res.IsBool || res.Bool != wantOne {
		t.Fatalf("UQ13 p=0.3 (%d): do=%+v err=%v, want %v", target, res, err, wantOne)
	}

	wantPairs, err := queries.AllPairsPossibleNN(store.All(), 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	res, err = eng.Do(ctx, store, Request{Kind: KindAllPairs, Tb: 0, Te: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Pairs, wantPairs) {
		t.Fatalf("ALLPAIRS diverged from serial all-pairs")
	}

	targetTr, err := store.Get(target)
	if err != nil {
		t.Fatal(err)
	}
	wantRev, err := queries.ReversePossibleNN(store.All(), targetTr, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	res, err = eng.Do(ctx, store, Request{Kind: KindReverse, Tb: 0, Te: 60, OID: target})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.OIDs, wantRev) {
		t.Fatalf("REVERSE: do=%v serial=%v", res.OIDs, wantRev)
	}
	if _, err := eng.Do(ctx, store, Request{Kind: KindReverse, Tb: 0, Te: 60, OID: 999999}); !errors.Is(err, ErrUnknownOID) {
		t.Fatalf("REVERSE unknown target: err=%v, want ErrUnknownOID", err)
	}
}

// TestTrivialFractionAgreesWithSingleObject: at a fraction that rounds
// to zero length, the whole-MOD answer is exactly the objects whose
// single-object answer is true, at every probability bound — pruned
// objects included, since an empty interval set meets a zero requirement
// (a probability bound used to narrow the whole-MOD answer to the UQ31
// TestProbabilityDeadline: a deadline reaches the probability loop. A
// UQ13 with p = 0.4 at N = 60 integrates Eq. 5 for ~0.7 s uncut; with a
// 50 ms deadline it answers context.DeadlineExceeded within a sample or so
// of the deadline (one sample is ~10 ms here), not at the end of the
// series.
func TestProbabilityDeadline(t *testing.T) {
	store, qOID := newStore(t, 60, 7)
	eng := New(0)
	proc, err := eng.ProcessorWhereCtx(context.Background(), store, qOID, 17, 27, nil)
	if err != nil {
		t.Fatal(err)
	}
	var target int64
	for _, oid := range proc.UQ31() {
		if oid != qOID {
			target = oid
			break
		}
	}
	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err = eng.Do(ctx, store, Request{Kind: KindUQ13, QueryOID: qOID, Tb: 17, Te: 27, OID: target, P: 0.4, X: 0.3})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("UQ13 p=0.4 under a %v deadline: err = %v after %v", deadline, err, elapsed)
	}
	if elapsed > deadline+200*time.Millisecond {
		t.Fatalf("deadline %v answered after %v", deadline, elapsed)
	}
	if _, err := proc.ProbabilityTable(ctx, queries.ThresholdConfig{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("table under an expired context: err = %v", err)
	}
}

// members).
func TestTrivialFractionAgreesWithSingleObject(t *testing.T) {
	store, qOID := newStore(t, 12, 7)
	eng := New(1)
	ctx := context.Background()
	for _, p := range []float64{0, 0.5, 1} {
		all, err := eng.Do(ctx, store, Request{Kind: KindUQ33, QueryOID: qOID, Tb: 0, Te: 60, P: p})
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, oid := range store.OIDs() {
			if oid == qOID {
				continue
			}
			one, err := eng.Do(ctx, store, Request{Kind: KindUQ13, QueryOID: qOID, Tb: 0, Te: 60, OID: oid, P: p})
			if err != nil {
				t.Fatal(err)
			}
			if one.Bool {
				want = append(want, oid)
			}
		}
		if !slices.Equal(all.OIDs, want) || len(want) != store.Len()-1 {
			t.Errorf("p=%g: whole-MOD %v, single-object %v (of %d candidates)", p, all.OIDs, want, store.Len()-1)
		}
		if all.Explain.Survivors == all.Explain.Candidates {
			t.Errorf("p=%g: nothing was pruned, the test proves nothing", p)
		}
	}
}

// TestMemoLRU: a steadily re-hit key must survive memoCap inserts — the
// old insertion-order eviction dropped exactly the hottest (oldest) entry.
func TestMemoLRU(t *testing.T) {
	store, qOID := newStore(t, 30, 23)
	eng := New(1)
	hot, err := eng.ProcessorWhereCtx(context.Background(), store, qOID, 0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < memoCap+8; i++ {
		// A distinct window per iteration forces a fresh memo entry...
		if _, err := eng.ProcessorWhereCtx(context.Background(), store, qOID, 0, 10+float64(i)/10, nil); err != nil {
			t.Fatal(err)
		}
		// ...while the hot key is touched every time.
		got, err := eng.ProcessorWhereCtx(context.Background(), store, qOID, 0, 60, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != hot {
			t.Fatalf("hot key evicted after %d inserts (LRU regression)", i+1)
		}
	}
	if n := memoLen(eng); n > memoCap {
		t.Fatalf("memo grew to %d > cap %d", n, memoCap)
	}
}

// TestDoBatchCancellation: a context canceled mid-batch surfaces
// context.Canceled and leaves the store (and engine) usable.
func TestDoBatchCancellation(t *testing.T) {
	store, qOID := newStore(t, 200, 29)
	eng := New(2)

	// Deterministic: an already-canceled context does no work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.DoBatch(ctx, store, []Request{{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled batch: err=%v, want context.Canceled", err)
	}

	// Mid-batch: cancel while the batch is grinding through distinct
	// windows (each one a fresh preprocessing).
	reqs := make([]Request, 200)
	for i := range reqs {
		reqs[i] = Request{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 30 + float64(i)/100}
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel2()
	}()
	results, err := eng.DoBatch(ctx2, store, reqs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-batch cancel: err=%v, want context.Canceled", err)
	}
	if len(results) == len(reqs) {
		t.Log("batch completed before cancel fired (machine unusually fast); result-length check skipped")
	}

	// The store and engine remain fully usable with a live context.
	res, err := eng.Do(context.Background(), store, Request{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60})
	if err != nil || res.Err != nil {
		t.Fatalf("engine unusable after cancellation: %v / %v", err, res.Err)
	}
}

// TestFilterCancellationBetweenTasks: the worker pool observes ctx between
// per-OID tasks (deterministically, by canceling from inside a task).
func TestFilterCancellationBetweenTasks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		eng := New(workers)
		ctx, cancel := context.WithCancel(context.Background())
		oids := make([]int64, 64)
		for i := range oids {
			oids[i] = int64(i)
		}
		ran := 0
		_, err := eng.filterOIDs(ctx, oids, func(oid int64) (bool, error) {
			ran++
			cancel()
			return true, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
		if ran == len(oids) {
			t.Errorf("workers=%d: all %d tasks ran despite cancellation", workers, ran)
		}
		cancel()
	}
}

// TestCanceledBuildDoesNotPoisonMemo: a preprocessing aborted by its
// context must not stick in the memo as a permanent error.
func TestCanceledBuildDoesNotPoisonMemo(t *testing.T) {
	store, qOID := newStore(t, 150, 43)
	eng := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.processor(ctx, store, qOID, 0, 60, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled build: err=%v, want context.Canceled", err)
	}
	if _, _, err := eng.processor(context.Background(), store, qOID, 0, 60, nil); err != nil {
		t.Fatalf("memo poisoned by canceled build: %v", err)
	}
}
