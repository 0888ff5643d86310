package engine

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// TestFullScanCancellationCheckpoints: the full-scan build — a FullScan
// engine's and DoRestricted's — checks its context once per candidate and
// stops at the check that sees it, whether the context is canceled or its
// deadline passes before the timer fires.
func TestFullScanCancellationCheckpoints(t *testing.T) {
	store, qOID := newStore(t, 60, 7)
	n := store.Len() - 1
	full := &dyingCtx{Context: context.Background(), after: math.MaxInt}
	if _, err := NewWith(Options{FullScan: true}).ProcessorWhereCtx(full, store, qOID, 0, 60, nil); err != nil {
		t.Fatal(err)
	}
	if full.calls != n {
		t.Fatalf("a full-scan build checked its context %d times, want one per candidate (%d)", full.calls, n)
	}
	req := Request{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60}
	runs := map[string]func(ctx context.Context) error{
		"FullScan Do": func(ctx context.Context) error {
			_, err := NewWith(Options{FullScan: true}).Do(ctx, store, req)
			return err
		},
		"DoRestricted": func(ctx context.Context) error {
			_, err := New(1).DoRestricted(ctx, store, req, nil)
			return err
		},
	}
	// Check 1 is the request's entry check, checks 2..n+1 the build's.
	for name, run := range runs {
		for _, after := range []int{2, 3, n / 2, n + 1} {
			ctx := &dyingCtx{Context: context.Background(), after: after}
			if err := run(ctx); err != context.Canceled {
				t.Fatalf("%s dying at check %d: err = %v, want context.Canceled", name, after, err)
			}
			if ctx.calls != after {
				t.Fatalf("%s checked its context %d times after a cancel at check %d", name, ctx.calls, after)
			}
			late := &lateTimerCtx{Context: context.Background(), after: after}
			if err := run(late); err != context.DeadlineExceeded {
				t.Fatalf("%s with a deadline at check %d: err = %v, want context.DeadlineExceeded", name, after, err)
			}
			if late.calls != after {
				t.Fatalf("%s checked its deadline %d times after it passed at check %d", name, late.calls, after)
			}
		}
	}
}

// dyingCtx reports context.Canceled from its after-th Err call on, and
// counts the calls.
type dyingCtx struct {
	context.Context
	after, calls int
}

func (c *dyingCtx) Err() error {
	if c.calls++; c.calls >= c.after {
		return context.Canceled
	}
	return nil
}

// lateTimerCtx is a context whose deadline has passed from its after-th
// Deadline call on while its timer has not fired (Err stays nil), and
// counts the calls.
type lateTimerCtx struct {
	context.Context
	after, calls int
}

func (c *lateTimerCtx) Deadline() (time.Time, bool) {
	if c.calls++; c.calls >= c.after {
		return time.Now().Add(-time.Second), true
	}
	return time.Now().Add(time.Hour), true
}

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

// BenchmarkRefineUnion: what a cluster router does with a gathered union
// — load the survivors into a store that lives for one query and verify
// every one of them for a UQ31. The union is a real survivor set of the
// size sharded_wire's exchange leaves: the 94 objects the pre-pass keeps
// of the benchmark's 3 000-object fleet for this query and window, and
// the query.
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
		if _, err := eng.DoRestricted(context.Background(), union, req, ids); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(survivors)), "objects")
}

// TestProbabilityTableCancellationCheckpoints: a P > 0 request integrates
// one probability table, checking its context once per time sample — S
// checks, not one series of S per UQ31 member — and stops at the check
// that sees a cancel or a passed deadline, through Do and DoRestricted
// alike. An unknown target fails before any sample, and a request whose
// answer is its candidate set builds no table.
func TestProbabilityTableCancellationCheckpoints(t *testing.T) {
	const samples = 64 // ThresholdConfig's default, the engine's table
	store, qOID := newStore(t, 60, 7)
	own := slices.DeleteFunc(store.OIDs(), func(oid int64) bool { return oid == qOID })
	eng := New(1)
	req := Request{Kind: KindUQ33, QueryOID: qOID, Tb: 17, Te: 27, P: 0.4, X: 0.3}
	// Warm both memo slots, so that every check counted below is the
	// request's entry check, a filter task's or a table sample's.
	members, err := eng.Do(context.Background(), store, Request{Kind: KindUQ31, QueryOID: qOID, Tb: 17, Te: 27})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DoRestricted(context.Background(), store, Request{Kind: KindUQ31, QueryOID: qOID, Tb: 17, Te: 27}, own); err != nil {
		t.Fatal(err)
	}
	k := len(members.OIDs)
	if k < 2 {
		t.Fatalf("%d UQ31 members: one table and a series per member cost the same", k)
	}
	runs := map[string]func(ctx context.Context) (Result, error){
		"Do":           func(ctx context.Context) (Result, error) { return eng.Do(ctx, store, req) },
		"DoRestricted": func(ctx context.Context) (Result, error) { return eng.DoRestricted(ctx, store, req, own) },
	}
	var answers [][]int64
	for name, run := range runs {
		full := &dyingCtx{Context: context.Background(), after: math.MaxInt}
		res, err := run(full)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		answers = append(answers, res.OIDs)
		// The entry check, one per filter task, and the table's samples.
		if want := 1 + k + samples; full.calls != want {
			t.Fatalf("%s checked its context %d times, want 1 + %d members + %d samples = %d", name, full.calls, k, samples, want)
		}
		// Check 2 is the first member's task, 3..S+2 the table's samples.
		for _, after := range []int{2, samples / 2, samples + 1} {
			ctx := &dyingCtx{Context: context.Background(), after: after}
			if _, err := run(ctx); err != context.Canceled {
				t.Fatalf("%s dying at check %d: err = %v, want context.Canceled", name, after, err)
			}
			if ctx.calls != after {
				t.Fatalf("%s checked its context %d times after a cancel at check %d", name, ctx.calls, after)
			}
			late := &lateTimerCtx{Context: context.Background(), after: after}
			if _, err := run(late); err != context.DeadlineExceeded {
				t.Fatalf("%s with a deadline at check %d: err = %v, want context.DeadlineExceeded", name, after, err)
			}
			if late.calls != after {
				t.Fatalf("%s checked its deadline %d times after it passed at check %d", name, late.calls, after)
			}
		}
	}
	if !slices.Equal(answers[0], answers[1]) {
		t.Fatalf("Do answered %v, DoRestricted %v", answers[0], answers[1])
	}

	// Neither of these reaches a table: only the entry check is made.
	unknown := &dyingCtx{Context: context.Background(), after: math.MaxInt}
	if _, err := eng.Do(unknown, store, Request{Kind: KindUQ13, QueryOID: qOID, Tb: 17, Te: 27, OID: 999999, P: 0.4, X: 0.3}); !errors.Is(err, ErrUnknownOID) {
		t.Fatalf("UQ13 p=0.4 on an unknown OID: err = %v, want ErrUnknownOID", err)
	}
	if unknown.calls != 1 {
		t.Fatalf("UQ13 p=0.4 on an unknown OID checked its context %d times, want the entry check only", unknown.calls)
	}
	every := &dyingCtx{Context: context.Background(), after: math.MaxInt}
	res, err := eng.Do(every, store, Request{Kind: KindUQ33, QueryOID: qOID, Tb: 17, Te: 27, P: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if every.calls != 1 || len(res.OIDs) != len(own) {
		t.Fatalf("UQ33 p=0.4 x=0: %d context checks and %d of %d candidates, want the entry check and every candidate", every.calls, len(res.OIDs), len(own))
	}
}
