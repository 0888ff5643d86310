package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/mod"
	"repro/internal/queries"
	"repro/internal/workload"
)

// newStore builds a seeded random-waypoint store of n trajectories with the
// paper's default model (r = 0.5) and returns it with the first OID.
func newStore(t testing.TB, n int, seed int64) (*mod.Store, int64) {
	t.Helper()
	trs, err := workload.Generate(workload.DefaultConfig(seed), n)
	if err != nil {
		t.Fatal(err)
	}
	store, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	return store, trs[0].OID
}

// batchKinds is the mixed workload used by the equivalence tests: every
// whole-MOD variant plus fixed-time retrievals, at several ranks, against
// query trajectory qOID over [0, 60].
func batchKinds(qOID int64) []Request {
	return forQuery(qOID,
		Request{Kind: KindUQ31},
		Request{Kind: KindUQ32},
		Request{Kind: KindUQ33, X: 0.25},
		Request{Kind: KindUQ41, K: 2},
		Request{Kind: KindUQ41, K: 3},
		Request{Kind: KindUQ42, K: 2},
		Request{Kind: KindUQ43, K: 3, X: 0.25},
		Request{Kind: KindAllNNAt, T: 30},
		Request{Kind: KindAllRankAt, T: 30, K: 2},
	)
}

// forQuery points variant descriptors at query trajectory qOID over [0, 60].
func forQuery(qOID int64, reqs ...Request) []Request {
	for i := range reqs {
		reqs[i].QueryOID, reqs[i].Tb, reqs[i].Te = qOID, 0, 60
	}
	return reqs
}

// serialResults computes the same batch with the serial Processor loops.
func serialResults(t *testing.T, store *mod.Store, qOID int64, qs []Request) []Result {
	t.Helper()
	q, err := store.Get(qOID)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Result, len(qs))
	for i, qq := range qs {
		var (
			ids []int64
			err error
		)
		switch qq.Kind {
		case KindUQ31:
			ids = proc.UQ31()
		case KindUQ32:
			ids = proc.UQ32()
		case KindUQ33:
			ids, err = proc.UQ43(1, qq.X)
		case KindUQ41:
			ids, err = proc.UQ41(qq.K)
		case KindUQ42:
			ids, err = proc.UQ42(qq.K)
		case KindUQ43:
			ids, err = proc.UQ43(qq.K, qq.X)
		case KindAllNNAt:
			ids, err = proc.PossibleRankKAt(qq.T, 1)
		case KindAllRankAt:
			ids, err = proc.PossibleRankKAt(qq.T, qq.K)
		default:
			t.Fatalf("serialResults: unhandled kind %q", qq.Kind)
		}
		out[i] = Result{OIDs: ids, Err: err}
	}
	return out
}

func answersEqual(a, b Result) bool {
	if a.IsBool != b.IsBool || a.Bool != b.Bool || (a.Err == nil) != (b.Err == nil) {
		return false
	}
	return fmt.Sprint(a.OIDs) == fmt.Sprint(b.OIDs)
}

// TestBatchMatchesSerial is the acceptance gate: on a seeded
// 1000-trajectory workload, the parallel batch answers must be identical to
// the serial Processor's, variant by variant.
func TestBatchMatchesSerial(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 200
	}
	store, qOID := newStore(t, n, 42)
	qs := batchKinds(qOID)
	want := serialResults(t, store, qOID, qs)

	got, err := New(0).DoBatch(context.Background(), store, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Err != nil {
			t.Fatalf("query %d (%s): %v", i, qs[i].Kind, got[i].Err)
		}
		if !answersEqual(got[i], want[i]) {
			t.Errorf("query %d (%s k=%d x=%g): parallel %v != serial %v",
				i, qs[i].Kind, qs[i].K, qs[i].X, got[i].OIDs, want[i].OIDs)
		}
	}
}

// TestWorkerCountInvariance is the property test: worker count (1, 2, 3,
// NumCPU, more-than-OIDs) must never change any answer.
func TestWorkerCountInvariance(t *testing.T) {
	store, qOID := newStore(t, 120, 7)
	qs := append(batchKinds(qOID), forQuery(qOID,
		Request{Kind: KindUQ11, OID: qOID + 5},
		Request{Kind: KindUQ13, OID: qOID + 5, X: 0.1},
		Request{Kind: KindUQ21, OID: qOID + 9, K: 2},
	)...)
	counts := []int{1, 2, 3, runtime.NumCPU(), 1000}
	var ref []Result
	for i, w := range counts {
		got, err := New(w).DoBatch(context.Background(), store, qs)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if i == 0 {
			ref = got
			continue
		}
		for j := range qs {
			if !answersEqual(got[j], ref[j]) {
				t.Errorf("workers=%d query %d (%s): %+v != workers=1 %+v",
					w, j, qs[j].Kind, got[j], ref[j])
			}
		}
	}
}

// TestBoolKindsMatchProcessor checks the single-object kinds against the
// Processor methods directly.
func TestBoolKindsMatchProcessor(t *testing.T) {
	store, qOID := newStore(t, 60, 3)
	q, err := store.Get(qOID)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2)
	for _, oid := range proc.CandidateOIDs() {
		wantB, err := proc.UQ11(oid)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Do(context.Background(), store, Request{Kind: KindUQ11, QueryOID: qOID, Tb: 0, Te: 60, OID: oid})
		if err != nil || !got.IsBool || got.Bool != wantB {
			t.Fatalf("UQ11(%d): got %+v (%v), want %v", oid, got, err, wantB)
		}
	}
}

// memoized is the test shorthand for the whole-MOD memo lookup.
func memoized(t *testing.T, eng *Engine, store *mod.Store, qOID int64, tb, te float64) *queries.Processor {
	t.Helper()
	proc, err := eng.ProcessorWhereCtx(context.Background(), store, qOID, tb, te, nil)
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

// TestProcessorMemo checks reuse within a store version and invalidation
// across mutations.
func TestProcessorMemo(t *testing.T) {
	store, qOID := newStore(t, 40, 11)
	eng := New(2)
	p1 := memoized(t, eng, store, qOID, 0, 60)
	if p2 := memoized(t, eng, store, qOID, 0, 60); p1 != p2 {
		t.Fatal("same key did not reuse the memoized processor")
	}
	if eng.MemoLen() != 1 {
		t.Fatalf("memo len = %d, want 1", eng.MemoLen())
	}
	// A different window is a different key.
	if p3 := memoized(t, eng, store, qOID, 0, 30); p3 == p1 {
		t.Fatal("window change should build a new processor")
	}
	// A store mutation bumps the version and invalidates.
	trs, err := workload.Generate(workload.DefaultConfig(99), 41)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(trs[40]); err != nil {
		t.Fatal(err)
	}
	p4 := memoized(t, eng, store, qOID, 0, 60)
	if p4 == p1 {
		t.Fatal("store mutation did not invalidate the memo")
	}
	if len(p4.CandidateOIDs()) != len(p1.CandidateOIDs())+1 {
		t.Fatalf("rebuilt processor sees %d candidates, want %d",
			len(p4.CandidateOIDs()), len(p1.CandidateOIDs())+1)
	}
}

// TestConcurrentBatches hammers one engine from many goroutines (run under
// -race). Batches share keys, so this also exercises the build-once slot.
func TestConcurrentBatches(t *testing.T) {
	store, qOID := newStore(t, 80, 21)
	eng := New(runtime.NumCPU())
	qs := batchKinds(qOID)
	const goroutines = 8
	var wg sync.WaitGroup
	results := make([][]Result, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = eng.DoBatch(context.Background(), store, qs)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for j := range qs {
			if !answersEqual(results[g][j], results[0][j]) {
				t.Errorf("goroutine %d query %d (%s) diverged", g, j, qs[j].Kind)
			}
		}
	}
	if eng.MemoLen() != 1 {
		t.Fatalf("memo len = %d, want 1 (all batches share a key)", eng.MemoLen())
	}
}

// TestErrors covers the per-request failure paths: one bad batch member
// never poisons its siblings.
func TestErrors(t *testing.T) {
	store, qOID := newStore(t, 20, 5)
	eng := New(2)
	res, err := eng.DoBatch(context.Background(), store, append(forQuery(qOID,
		Request{Kind: "NOPE"},
		Request{Kind: KindUQ33, X: 2},
		Request{Kind: KindUQ43, K: 0, X: 0.5},
		Request{Kind: KindUQ11, OID: 424242},
		Request{Kind: KindUQ31},
	), Request{Kind: KindUQ31, QueryOID: 99999, Tb: 0, Te: 60}))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []error{ErrBadKind, queries.ErrBadFrac, queries.ErrBadRank, queries.ErrUnknownOID, nil, mod.ErrNotFound} {
		if want == nil && res[i].Err != nil {
			t.Errorf("request %d: healthy sibling poisoned: %v", i, res[i].Err)
		}
		if want != nil && !errors.Is(res[i].Err, want) {
			t.Errorf("request %d: got %v, want %v", i, res[i].Err, want)
		}
	}
	var nilEng *Engine
	if _, err := nilEng.DoBatch(context.Background(), store, batchKinds(qOID)); !errors.Is(err, ErrNoEngine) {
		t.Errorf("nil engine: got %v, want ErrNoEngine", err)
	}
}
