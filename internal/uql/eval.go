package uql

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/envelope"
	"repro/internal/mod"
	"repro/internal/queries"
)

// Result is the outcome of evaluating a UQL statement: a boolean for
// single-object statements (Categories 1/2), an OID list for whole-MOD
// statements (Categories 3/4).
type Result struct {
	IsBool bool
	Bool   bool
	OIDs   []int64
}

func (r Result) String() string {
	if r.IsBool {
		if r.Bool {
			return "true"
		}
		return "false"
	}
	return fmt.Sprintf("%v", r.OIDs)
}

// ErrEval wraps evaluation-time errors (unknown OIDs, bad windows).
var ErrEval = errors.New("uql: evaluation error")

// serialEngine builds the throwaway engine serving calls issued without a
// caller-owned one. One worker keeps per-statement evaluation serial (the
// historic Eval behavior), and because the engine dies with the call its
// memo cannot pin stores or envelope preprocessing beyond it — long-lived
// sharing is the caller-owned engine's job.
func serialEngine() *engine.Engine {
	return engine.NewWith(engine.Options{Workers: 1})
}

// EvalCtx evaluates a parsed statement against the store, using its shared
// uncertainty radius. The statement compiles to an engine.Request and runs
// through the unified Engine.Do route on a throwaway serial engine, with
// ctx honored throughout (preprocessing, worker pool, lazy envelope
// builds); callers issuing many statements — or wanting parallel whole-MOD
// evaluation and preprocessing reuse across calls — should use RunBatchCtx
// with their own engine.
func EvalCtx(ctx context.Context, st *Stmt, store *mod.Store) (Result, error) {
	item := evalWithEngine(ctx, st, store, serialEngine())
	return item.Result, item.Err
}

// EvalWithProcessorCtx evaluates a parsed statement against an
// already-built processor for the statement's (TrQ, window); the processor
// must have been constructed for st.QueryOID over [st.Tb, st.Te]. The
// threshold and certain predicates scan P^NN series (or full envelope
// builds) per object, so cancellation is checked between objects.
func EvalWithProcessorCtx(ctx context.Context, st *Stmt, proc *queries.Processor) (Result, error) {
	if st.Certain {
		return evalCertain(ctx, st, proc)
	}
	if st.Threshold > 0 {
		return evalThreshold(ctx, st, proc)
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
func evalCertain(ctx context.Context, st *Stmt, proc *queries.Processor) (Result, error) {
	check := func(oid int64) (bool, error) {
		ivs, err := proc.GuaranteedNNIntervals(oid)
		if err != nil {
			return false, err
		}
		return holdsQuant(st, proc, ivsTotal(ivs), ivsCover(ivs, st), ivsAt(ivs, st.FixedT)), nil
	}
	return evalPerObject(ctx, st, proc, check)
}

// evalThreshold answers `> p` predicates (p > 0) via sampled P^NN series.
func evalThreshold(ctx context.Context, st *Stmt, proc *queries.Processor) (Result, error) {
	cfg := queries.ThresholdConfig{}
	check := func(oid int64) (bool, error) {
		ivs, err := proc.AboveThresholdIntervals(oid, st.Threshold, cfg)
		if err != nil {
			return false, err
		}
		return holdsQuant(st, proc, ivsTotal(ivs), ivsCover(ivs, st), ivsAt(ivs, st.FixedT)), nil
	}
	return evalPerObject(ctx, st, proc, check)
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
		ids = proc.PossibleNNAt(st.FixedT)
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
			ids, err = proc.UQ33(st.Percent)
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

// Run parses and evaluates src against store.
func Run(src string, store *mod.Store) (Result, error) {
	st, err := Parse(src)
	if err != nil {
		return Result{}, err
	}
	return EvalCtx(context.Background(), st, store)
}
