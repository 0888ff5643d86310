package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// TestFullScanCancellationCheckpoints: the full-scan build — a FullScan
// engine's, DoRestricted's and the whole build a router evaluates on —
// checks its context once per candidate and stops at the check that sees
// it, whether the context is canceled or its deadline passes before the
// timer fires.
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
		"whole build + Evaluate": func(ctx context.Context) error {
			proc, err := wholeBuild(ctx, store, req)
			if err == nil {
				_, err = New(1).Evaluate(ctx, store, proc, req, []int64{})
			}
			return err
		},
	}
	// On Do and DoRestricted check 1 is the request's entry check and
	// checks 2..n+1 the build's; a bare whole build makes checks 1..n and
	// Evaluate's empty domain check n+1.
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

// TestPerQueryObjectCancellationCheckpoints: the ALLPAIRS/REVERSE loop
// checks its context once per query object, before the object's task, and
// stops at the check that sees it — with a build that never checks ctx
// itself, so every check counted is the loop's own.
func TestPerQueryObjectCancellationCheckpoints(t *testing.T) {
	store, qOID := newStore(t, 30, 7)
	eng := New(1)
	oids := store.OIDs()
	procs := make(map[int64]*queries.Processor, len(oids))
	for _, oid := range oids {
		p, err := eng.ProcessorWhereCtx(context.Background(), store, oid, 0, 60, nil)
		if err != nil {
			t.Fatal(err)
		}
		procs[oid] = p
	}
	build := func(_ context.Context, oid int64) (*queries.Processor, error) { return procs[oid], nil }
	tags := func(int64) ([]string, error) { return nil, nil }
	n := len(oids)
	for _, req := range []Request{
		{Kind: KindAllPairs, Tb: 0, Te: 60},
		{Kind: KindReverse, OID: qOID, Tb: 0, Te: 60},
	} {
		full := &dyingCtx{Context: context.Background(), after: math.MaxInt}
		got, err := eng.PerQueryObject(full, req, oids, tags, build)
		if err != nil {
			t.Fatal(err)
		}
		if full.calls != n {
			t.Fatalf("%s checked its context %d times, want one per query object (%d)", req.Kind, full.calls, n)
		}
		want, err := eng.Do(context.Background(), store, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.OIDs, want.OIDs) || !reflect.DeepEqual(got.Pairs, want.Pairs) {
			t.Fatalf("%s over the stub builds answered %+v, Do %+v", req.Kind, got, want)
		}
		for _, after := range []int{1, 2, n / 2, n} {
			ctx := &dyingCtx{Context: context.Background(), after: after}
			if _, err := eng.PerQueryObject(ctx, req, oids, tags, build); err != context.Canceled {
				t.Fatalf("%s dying at check %d: err = %v, want context.Canceled", req.Kind, after, err)
			}
			if ctx.calls != after {
				t.Fatalf("%s checked its context %d times after a cancel at check %d", req.Kind, ctx.calls, after)
			}
			late := &lateTimerCtx{Context: context.Background(), after: after}
			if _, err := eng.PerQueryObject(late, req, oids, tags, build); err != context.DeadlineExceeded {
				t.Fatalf("%s with a deadline at check %d: err = %v, want context.DeadlineExceeded", req.Kind, after, err)
			}
			if late.calls != after {
				t.Fatalf("%s checked its deadline %d times after it passed at check %d", req.Kind, late.calls, after)
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

// wholeBuild is the processor a router evaluates on: every object of the
// request's (sub-)MOD, no pre-pass and no memo.
func wholeBuild(ctx context.Context, store *mod.Store, req Request) (*queries.Processor, error) {
	q, err := store.Get(req.QueryOID)
	if err != nil {
		return nil, err
	}
	return queries.NewProcessorPrunedCtx(ctx, matchingTrajectories(store, req.Where.Canon()), q, req.Tb, req.Te, store.Radius(), nil)
}

// splitOwn halves the store's non-query OIDs into two sorted shares, the
// way two shards would own a gathered union.
func splitOwn(store *mod.Store, qOID int64) (a, b []int64) {
	oids := slices.DeleteFunc(store.OIDs(), func(oid int64) bool { return oid == qOID })
	return oids[:len(oids)/2], oids[len(oids)/2:]
}

// TestDoRestrictedNeverFilters is the refine contract: the store is a
// survivor set already, so a whole build over every object in it — the
// one a router evaluates on, and DoRestricted's — never builds, probes or
// sweeps the index, at any rank or under a predicate, nothing enters the
// memo, and the shares' answers (one through Evaluate, one through
// DoRestricted) still tile the pruned engine's.
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
		whole, err := wholeBuild(ctx, store, req)
		if err != nil {
			t.Fatalf("%s: %v", req.Kind, err)
		}
		a, err := refine.Evaluate(ctx, store, whole, req, ownA)
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
	}
	if n := memoLen(refine); n != 0 {
		t.Fatalf("whole builds left %d memo entries", n)
	}
	if got := store.IndexStats(); got != (mod.IndexStats{}) {
		t.Fatalf("refines touched the store's indexes: %+v", got)
	}
	if ref.IndexStats().SegBuilds == 0 {
		t.Fatal("the pruned reference never built its index: the comparison proves nothing")
	}
}

// TestPrunedAndWholeBuildsDoNotAlias: Do and Evaluate on a whole build,
// on one store pointer and one (query, window), answer identically from
// a pruned and a whole processor that never stand in for each other; only
// the pruned one is memoized.
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
		proc, err := wholeBuild(ctx, store, req)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := eng.Evaluate(ctx, store, proc, req, own)
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Explain.MemoHit != wantHit || whole.Explain.MemoHit {
			t.Fatalf("round %d: memo hits pruned=%v whole=%v, want %v and false", round, pruned.Explain.MemoHit, whole.Explain.MemoHit, wantHit)
		}
		if pruned.Explain.Survivors >= pruned.Explain.Candidates {
			t.Fatalf("round %d: Do answered from an unpruned build: %+v", round, pruned.Explain)
		}
		if whole.Explain.Survivors != whole.Explain.Candidates {
			t.Fatalf("round %d: Evaluate answered from a pruned build: %+v", round, whole.Explain)
		}
		if !slices.Equal(pruned.OIDs, whole.OIDs) || len(whole.OIDs) == 0 {
			t.Fatalf("round %d: pruned %v, whole %v", round, pruned.OIDs, whole.OIDs)
		}
	}
	if memoLen(eng) != 1 {
		t.Fatalf("memo holds %d processors, want the pruned one only", memoLen(eng))
	}
}

// BenchmarkRefineUnion: what a cluster router does with a gathered union
// — load the survivors into a store that lives for one query, make one
// whole build over it (no pre-pass, no memo) and verify every survivor
// for a UQ31 through Evaluate. The union is a real survivor set of the
// size sharded_wire's exchange leaves: the 123 objects the pre-pass keeps
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
	ctx := context.Background()
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
		proc, err := wholeBuild(ctx, union, req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Evaluate(ctx, union, proc, req, ids); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(survivors)), "objects")
}

// TestProbabilityTableCancellationCheckpoints: a P > 0 request integrates
// one probability table, checking its context once per time sample — S
// checks, not one series of S per UQ31 member — and stops at the check
// that sees a cancel or a passed deadline, through Do and through
// Evaluate on a whole build alike. An unknown target fails before any sample, and a request whose
// answer is its candidate set builds no table.
func TestProbabilityTableCancellationCheckpoints(t *testing.T) {
	const samples = 64 // ThresholdConfig's default, the engine's table
	store, qOID := newStore(t, 60, 7)
	own := slices.DeleteFunc(store.OIDs(), func(oid int64) bool { return oid == qOID })
	eng := New(1)
	req := Request{Kind: KindUQ33, QueryOID: qOID, Tb: 17, Te: 27, P: 0.4, X: 0.3}
	// Warm the memo and make the whole build, so that every check counted
	// below is Do's entry check, a filter task's or a table sample's.
	members, err := eng.Do(context.Background(), store, Request{Kind: KindUQ31, QueryOID: qOID, Tb: 17, Te: 27})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := wholeBuild(context.Background(), store, req)
	if err != nil {
		t.Fatal(err)
	}
	k := len(members.OIDs)
	if k < 2 {
		t.Fatalf("%d UQ31 members: one table and a series per member cost the same", k)
	}
	// entry is Do's entry check; Evaluate makes none of its own.
	runs := map[string]struct {
		entry int
		run   func(ctx context.Context) (Result, error)
	}{
		"Do":       {1, func(ctx context.Context) (Result, error) { return eng.Do(ctx, store, req) }},
		"Evaluate": {0, func(ctx context.Context) (Result, error) { return eng.Evaluate(ctx, store, whole, req, own) }},
	}
	var answers [][]int64
	for name, r := range runs {
		run := r.run
		full := &dyingCtx{Context: context.Background(), after: math.MaxInt}
		res, err := run(full)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		answers = append(answers, res.OIDs)
		// The entry check, one per filter task, and the table's samples.
		if want := r.entry + k + samples; full.calls != want {
			t.Fatalf("%s checked its context %d times, want %d entry + %d members + %d samples = %d", name, full.calls, r.entry, k, samples, want)
		}
		// On Do check 2 is the first member's task and 3..S+2 the table's
		// samples; on Evaluate every check comes one earlier.
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
		t.Fatalf("Do and Evaluate answered %v and %v", answers[0], answers[1])
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
