package uql

// The evaluator statements with a probability bound (`> p`, CertainNN)
// ran on before every statement compiled to an engine.Request, kept
// verbatim as the reference the compiled route is checked against. Two
// things differ from the deleted code: the certain-NN test builds the full
// candidate function set itself (the processor used to, through its lazy
// full build), and the P^NN series are read off one probability table
// per processor, memoized, since a reference that recomputed them for
// every statement would cost minutes.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/envelope"
	"repro/internal/mod"
	"repro/internal/queries"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// Result is the outcome of evaluating a UQL statement: a boolean for
// single-object statements (Categories 1/2), an OID list for whole-MOD
// statements (Categories 3/4).
type Result struct {
	IsBool bool
	Bool   bool
	OIDs   []int64
}

// ErrEval wraps evaluation-time errors (unknown OIDs, bad windows).
var ErrEval = errors.New("uql: evaluation error")

// reference evaluates statements the way the deleted evaluator did, on
// its own engine's memoized processors.
type reference struct {
	store  *mod.Store
	eng    *engine.Engine
	tables map[*queries.Processor]*queries.ProbabilityTable
}

func newReference(store *mod.Store) *reference {
	return &reference{store: store, eng: engine.New(1), tables: map[*queries.Processor]*queries.ProbabilityTable{}}
}

// eval is the deleted evalWithEngine's processor path, taken by every
// statement here (the possible-NN forms through evalAll/evalOne).
func (r *reference) eval(ctx context.Context, st *Stmt) (Result, error) {
	fail := func(err error) (Result, error) {
		return Result{}, fmt.Errorf("%w: %v", ErrEval, err)
	}
	store := r.store
	if st.Where != nil && !st.AllObjects {
		// Sub-MOD target semantics, mirrored from the engine: an existing
		// target that fails the predicate answers false; an absent one
		// still errors through the processor path below.
		if _, gerr := store.Get(st.TargetOID); gerr == nil && !st.Where.Matches(store.Tags(st.TargetOID)) {
			return Result{IsBool: true, Bool: false}, nil
		}
	}
	proc, err := r.eng.ProcessorWhereCtx(ctx, store, st.QueryOID, st.Tb, st.Te, st.Where)
	if err != nil {
		return fail(err)
	}
	return r.EvalWithProcessorCtx(ctx, st, proc)
}

// EvalWithProcessorCtx evaluates a parsed statement against an
// already-built processor for the statement's (TrQ, window); the processor
// must have been constructed for st.QueryOID over [st.Tb, st.Te]. The
// threshold and certain predicates scan P^NN series (or full envelope
// builds) per object, so cancellation is checked between objects.
func (r *reference) EvalWithProcessorCtx(ctx context.Context, st *Stmt, proc *queries.Processor) (Result, error) {
	if st.Certain {
		return r.evalCertain(ctx, st, proc)
	}
	if st.Threshold > 0 {
		return r.evalThreshold(ctx, st, proc)
	}
	if st.AllObjects {
		return evalAll(st, proc)
	}
	return evalOne(st, proc)
}

// ctxDone reports a finished context, consulting the wall clock as well
// as Err(): on a busy single-core host a short deadline can expire before
// the runtime schedules the timer goroutine that cancels the context.
func ctxDone(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// evalCertain answers CertainNN predicates via guaranteed-NN intervals.
func (r *reference) evalCertain(ctx context.Context, st *Stmt, proc *queries.Processor) (Result, error) {
	check := func(oid int64) (bool, error) {
		ivs, err := r.guaranteedNNIntervals(st, proc, oid)
		if err != nil {
			return false, err
		}
		return holdsQuant(st, proc, ivsTotal(ivs), ivsCover(ivs, st), ivsAt(ivs, st.FixedT)), nil
	}
	return evalPerObject(ctx, st, proc, check)
}

// guaranteedNNIntervals is the certain-NN test as the processor answered
// it before: against the lower envelope of *all* other objects of the
// (sub-)MOD, pruned ones included.
func (r *reference) guaranteedNNIntervals(st *Stmt, proc *queries.Processor, oid int64) ([]envelope.TimeInterval, error) {
	if _, err := proc.PossibleNNIntervals(oid); err != nil {
		return nil, err
	}
	q, err := r.store.Get(st.QueryOID)
	if err != nil {
		return nil, err
	}
	var trs []*trajectory.Trajectory
	for _, tr := range r.store.All() {
		if st.Where == nil || st.Where.Matches(r.store.Tags(tr.OID)) {
			trs = append(trs, tr)
		}
	}
	all, err := envelope.BuildDistanceFuncs(trs, q, st.Tb, st.Te)
	if err != nil {
		return nil, err
	}
	return envelope.GuaranteedNNIntervals(all, oid, proc.Envelope(), proc.R), nil
}

// evalThreshold answers `> p` predicates (p > 0) via sampled P^NN series.
func (r *reference) evalThreshold(ctx context.Context, st *Stmt, proc *queries.Processor) (Result, error) {
	table, err := r.table(proc)
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrEval, err)
	}
	check := func(oid int64) (bool, error) {
		ivs, err := table.Above(oid, st.Threshold)
		if err != nil {
			return false, err
		}
		return holdsQuant(st, proc, ivsTotal(ivs), ivsCover(ivs, st), ivsAt(ivs, st.FixedT)), nil
	}
	return evalPerObject(ctx, st, proc, check)
}

// table is the processor's probability table, memoized.
func (r *reference) table(proc *queries.Processor) (*queries.ProbabilityTable, error) {
	if t, ok := r.tables[proc]; ok {
		return t, nil
	}
	t, err := proc.ProbabilityTable(context.Background(), queries.ThresholdConfig{})
	if err == nil {
		r.tables[proc] = t
	}
	return t, err
}

// evalPerObject runs a per-object boolean check either on the single
// target or across the whole MOD, honoring ctx between objects.
func evalPerObject(ctx context.Context, st *Stmt, proc *queries.Processor, check func(int64) (bool, error)) (Result, error) {
	if !st.AllObjects {
		ok, err := check(st.TargetOID)
		if err != nil {
			return Result{}, fmt.Errorf("%w: %v", ErrEval, err)
		}
		return Result{IsBool: true, Bool: ok}, nil
	}
	var out []int64
	for _, oid := range proc.UQ31() { // pruned objects can satisfy nothing
		if err := ctxDone(ctx); err != nil {
			return Result{}, fmt.Errorf("%w: %v", ErrEval, err)
		}
		ok, err := check(oid)
		if err != nil {
			return Result{}, fmt.Errorf("%w: %v", ErrEval, err)
		}
		if ok {
			out = append(out, oid)
		}
	}
	return Result{OIDs: out}, nil
}

// holdsQuant applies the statement's temporal quantifier to precomputed
// interval facts.
func holdsQuant(st *Stmt, proc *queries.Processor, total float64, covers, atFixed bool) bool {
	switch st.Quant {
	case QuantExists:
		return total > 0
	case QuantForAll:
		return covers
	case QuantAtLeast:
		return total >= st.Percent*(proc.Te-proc.Tb)-1e-9
	case QuantAt:
		return atFixed
	default:
		return false
	}
}

func ivsTotal(ivs []envelope.TimeInterval) float64 { return envelope.TotalLength(ivs) }

func ivsCover(ivs []envelope.TimeInterval, st *Stmt) bool {
	return len(ivs) == 1 && ivs[0].T0 <= st.Tb+1e-9 && ivs[0].T1 >= st.Te-1e-9
}

func ivsAt(ivs []envelope.TimeInterval, tf float64) bool {
	for _, iv := range ivs {
		if tf >= iv.T0-1e-9 && tf <= iv.T1+1e-9 {
			return true
		}
	}
	return false
}

func evalAll(st *Stmt, proc *queries.Processor) (Result, error) {
	var (
		ids []int64
		err error
	)
	switch {
	case st.Quant == QuantAt && st.Rank > 0:
		ids, err = proc.PossibleRankKAt(st.FixedT, st.Rank)
	case st.Quant == QuantAt:
		ids, err = proc.PossibleRankKAt(st.FixedT, 1)
	case st.Rank > 0:
		switch st.Quant {
		case QuantExists:
			ids, err = proc.UQ41(st.Rank)
		case QuantForAll:
			ids, err = proc.UQ42(st.Rank)
		case QuantAtLeast:
			ids, err = proc.UQ43(st.Rank, st.Percent)
		}
	default:
		switch st.Quant {
		case QuantExists:
			ids = proc.UQ31()
		case QuantForAll:
			ids = proc.UQ32()
		case QuantAtLeast:
			ids, err = proc.UQ43(1, st.Percent)
		}
	}
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrEval, err)
	}
	return Result{OIDs: ids}, nil
}

func evalOne(st *Stmt, proc *queries.Processor) (Result, error) {
	var (
		ok  bool
		err error
	)
	switch {
	case st.Quant == QuantAt && st.Rank > 0:
		ok, err = proc.IsPossibleRankKAt(st.TargetOID, st.FixedT, st.Rank)
	case st.Quant == QuantAt:
		ok, err = proc.IsPossibleNNAt(st.TargetOID, st.FixedT)
	case st.Rank > 0:
		switch st.Quant {
		case QuantExists:
			ok, err = proc.UQ21(st.TargetOID, st.Rank)
		case QuantForAll:
			ok, err = proc.UQ22(st.TargetOID, st.Rank)
		case QuantAtLeast:
			ok, err = proc.UQ23(st.TargetOID, st.Rank, st.Percent)
		}
	default:
		switch st.Quant {
		case QuantExists:
			ok, err = proc.UQ11(st.TargetOID)
		case QuantForAll:
			ok, err = proc.UQ12(st.TargetOID)
		case QuantAtLeast:
			ok, err = proc.UQ13(st.TargetOID, st.Percent)
		}
	}
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrEval, err)
	}
	return Result{IsBool: true, Bool: ok}, nil
}

// sweepFleet is one MOD of the equivalence sweep: a store, its query and
// the single-object targets the sweep asks about.
type sweepFleet struct {
	name    string
	store   *mod.Store
	q       int64
	targets []int64
}

// tagByParity tags every even OID "available".
func tagByParity(t *testing.T, st *mod.Store) {
	t.Helper()
	for _, oid := range st.OIDs() {
		if oid%2 == 0 {
			if err := st.SetTags(oid, []string{"available"}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// generatedFleet is a small workload fleet whose targets are a UQ31
// member that matches the sweep's predicate and one that does not, in
// that order.
func generatedFleet(t *testing.T, seed int64, n int) sweepFleet {
	t.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := workload.Generate(workload.DefaultConfig(seed), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	tagByParity(t, st)
	q := trs[0].OID
	proc, err := engine.New(1).ProcessorWhereCtx(context.Background(), st, q, 0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := sweepFleet{name: fmt.Sprintf("seed %d n %d", seed, n), store: st, q: q}
	members := proc.UQ31()
	for _, parity := range []int64{0, 1} {
		if i := slices.IndexFunc(members, func(oid int64) bool { return oid%2 == parity }); i >= 0 {
			f.targets = append(f.targets, members[i])
		}
	}
	return f
}

// loneFleet has one object inside the query's 4r zone and pruned peers
// far away: the lone survivor is certain over the whole window.
func loneFleet(t *testing.T) sweepFleet {
	t.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct {
		oid  int64
		x, y float64
	}{{1, 0, 0}, {2, 2, 0}, {3, 30, 0}, {4, 0, 35}, {5, -25, -25}} {
		tr, err := trajectory.New(o.oid, []trajectory.Vertex{{X: o.x, Y: o.y, T: 0}, {X: o.x + 1, Y: o.y, T: 60}})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	tagByParity(t, st)
	return sweepFleet{name: "lone survivor", store: st, q: 1, targets: []int64{2, 3}}
}

// TestCompileMatchesReference is the equivalence sweep of the one query
// route: every statement — single object and T; EXISTS, FORALL, ATLEAST
// 0/10/50/100 % and AT at the target's interval midpoints; `> 0`,
// `> 0.25`, `> 0.5` and CertainNN; with and without TAGS — answers the
// same compiled on a pruned and on a full-scan engine as on the reference
// evaluator. The one named difference is the whole-MOD ATLEAST 0 % with a
// probability bound, which the reference answered with the UQ31 members
// and the engine answers with every candidate — what the single-object
// statement says of each (an empty interval set meets a zero requirement).
func TestCompileMatchesReference(t *testing.T) {
	fleets := []sweepFleet{generatedFleet(t, 5, 6), generatedFleet(t, 16, 7), loneFleet(t)}
	engines := map[string]*engine.Engine{
		"pruned":   engine.New(1),
		"fullscan": engine.NewWith(engine.Options{Workers: 1, FullScan: true}),
	}
	for _, f := range fleets {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			checked, trivial := sweep(t, f, engines)
			if trivial == 0 {
				t.Fatal("the sweep never met the trivial-fraction case")
			}
			t.Logf("%d statements on 2 engines, %d of them the trivial-fraction fix", checked, trivial)
		})
	}
}

// sweep runs the equivalence sweep over one fleet and reports how many
// statements it checked and how many of them were the trivial-fraction
// case.
func sweep(t *testing.T, f sweepFleet, engines map[string]*engine.Engine) (checked, trivial int) {
	ctx := context.Background()
	preds := []string{
		"ProbabilityNN(%s, %d, Time) > 0",
		"ProbabilityNN(%s, %d, Time) > 0.25",
		"ProbabilityNN(%s, %d, Time) > 0.5",
		"CertainNN(%s, %d, Time) > 0",
	}
	if len(f.targets) == 0 {
		t.Fatal("no single-object targets")
	}
	ref := newReference(f.store)
	for _, tags := range []string{"", " AND TAGS CONTAINS ALL ('available')"} {
		for _, pred := range preds {
			stmt := func(sel, quant string) string {
				return fmt.Sprintf("SELECT %s FROM MOD WHERE %s AND %s%s", sel, quant, fmt.Sprintf(pred, sel, f.q), tags)
			}
			quants := []string{
				"EXISTS Time IN [0, 60]", "FORALL Time IN [0, 60]",
				"ATLEAST 0% Time IN [0, 60]", "ATLEAST 10% Time IN [0, 60]",
				"ATLEAST 50% Time IN [0, 60]", "ATLEAST 100% Time IN [0, 60]",
			}
			for _, tf := range midpoints(t, ref, stmt(fmt.Sprint(f.targets[0]), "EXISTS Time IN [0, 60]"), f.targets[0]) {
				quants = append(quants, fmt.Sprintf("AT Time = %g WITHIN [0, 60]", tf))
			}
			var srcs []string
			for _, quant := range quants {
				srcs = append(srcs, stmt("T", quant))
				for _, oid := range f.targets {
					srcs = append(srcs, stmt(fmt.Sprint(oid), quant))
				}
			}
			for _, src := range srcs {
				st, err := Parse(src)
				if err != nil {
					t.Fatalf("%q: %v", src, err)
				}
				want, err := ref.eval(ctx, st)
				if err != nil {
					t.Fatalf("reference %q: %v", src, err)
				}
				req := Compile(st)
				if req.EnumeratesCandidates() && req.P > 0 {
					// The trivial-fraction fix: every candidate of the
					// (sub-)MOD, as each single-object statement says.
					proc, err := ref.eng.ProcessorWhereCtx(ctx, f.store, st.QueryOID, st.Tb, st.Te, st.Where)
					if err != nil {
						t.Fatal(err)
					}
					want = Result{OIDs: proc.CandidateOIDs()}
					trivial++
				}
				for name, eng := range engines {
					res, err := eng.Do(ctx, f.store, req)
					if err != nil {
						t.Fatalf("%s %q: %v", name, src, err)
					}
					if res.IsBool != want.IsBool || res.Bool != want.Bool || !slices.Equal(res.OIDs, want.OIDs) {
						t.Errorf("%s %q:\n engine    %v %v %v\n reference %v %v %v", name, src,
							res.IsBool, res.Bool, res.OIDs, want.IsBool, want.Bool, want.OIDs)
					}
				}
				checked++
			}
		}
	}
	return checked, trivial
}

// midpoints returns the midpoints of the target's first and last
// intervals under the statement's bound (the window's middle when it has
// none), read off the reference so AT statements land inside them.
func midpoints(t *testing.T, ref *reference, src string, oid int64) []float64 {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	proc, err := ref.eng.ProcessorWhereCtx(ctx, ref.store, st.QueryOID, st.Tb, st.Te, st.Where)
	if err != nil {
		t.Fatal(err)
	}
	var ivs []envelope.TimeInterval
	switch {
	case st.Certain:
		ivs, err = ref.guaranteedNNIntervals(st, proc, oid)
	case st.Threshold > 0:
		var table *queries.ProbabilityTable
		if table, err = ref.table(proc); err == nil {
			ivs, err = table.Above(oid, st.Threshold)
		}
	default:
		ivs, err = proc.PossibleNNIntervals(oid)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) == 0 {
		return []float64{(st.Tb + st.Te) / 2}
	}
	mid := func(iv envelope.TimeInterval) float64 { return (iv.T0 + iv.T1) / 2 }
	if len(ivs) == 1 {
		return []float64{mid(ivs[0])}
	}
	return []float64{mid(ivs[0]), mid(ivs[len(ivs)-1])}
}
