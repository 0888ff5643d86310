package uql

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/mod"
)

// BatchItem is one statement's outcome in a multi-statement script. Err is
// per-statement so a bad line does not abort the rest of the script.
type BatchItem struct {
	Result Result
	Err    error
}

// RunBatchCtx parses and evaluates a multi-statement UQL script against the
// store through the batch engine: every statement compiles to an
// engine.Request where possible, so statements sharing a query trajectory
// and window share one memoized preprocessing and whole-MOD statements
// (Categories 3/4) fan their per-object candidate checks across the
// engine's worker pool. A nil engine evaluates serially (one worker)
// through a throwaway engine scoped to the call. Cancellation stops between
// statements and inside each statement's evaluation (worker pool, index
// pre-pass, lazy envelope builds); a canceled context fails the remaining
// statements with the context error.
func RunBatchCtx(ctx context.Context, srcs []string, store *mod.Store, eng *engine.Engine) []BatchItem {
	if eng == nil {
		// Throwaway serial engine: statements within this call still share
		// its memo; nothing outlives the call.
		eng = serialEngine()
	}
	out := make([]BatchItem, len(srcs))
	for i, src := range srcs {
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			continue
		}
		st, err := Parse(src)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i] = evalWithEngine(ctx, st, store, eng)
	}
	return out
}

// evalWithEngine evaluates one parsed statement through the engine's
// unified route: statements that compile to a Request go through
// Engine.Do; the threshold (`> p`) and CertainNN predicates — whose
// quantifier forms have no Request kind — still share the memoized
// processor.
func evalWithEngine(ctx context.Context, st *Stmt, store *mod.Store, eng *engine.Engine) BatchItem {
	fail := func(err error) BatchItem {
		return BatchItem{Err: fmt.Errorf("%w: %v", ErrEval, err)}
	}
	if req, ok := Compile(st); ok {
		res, err := eng.Do(ctx, store, req)
		if err != nil {
			return fail(err)
		}
		if res.IsBool {
			return BatchItem{Result: Result{IsBool: true, Bool: res.Bool}}
		}
		return BatchItem{Result: Result{OIDs: res.OIDs}}
	}
	if st.Where != nil && !st.AllObjects {
		// Sub-MOD target semantics, mirrored from the engine: an existing
		// target that fails the predicate answers false; an absent one
		// still errors through the processor path below.
		if _, gerr := store.Get(st.TargetOID); gerr == nil && !st.Where.Matches(store.Tags(st.TargetOID)) {
			return BatchItem{Result: Result{IsBool: true, Bool: false}}
		}
	}
	proc, err := eng.ProcessorWhereCtx(ctx, store, st.QueryOID, st.Tb, st.Te, st.Where)
	if err != nil {
		return fail(err)
	}
	res, err := EvalWithProcessorCtx(ctx, st, proc)
	if err != nil {
		return BatchItem{Err: err}
	}
	return BatchItem{Result: res}
}

// Compile translates a statement of the possible-NN family into the
// unified engine.Request — the single declarative descriptor every
// execution layer shares. ok is false for the threshold (`> p`) and
// CertainNN predicates, whose quantified forms evaluate through
// EvalWithProcessorCtx instead.
func Compile(st *Stmt) (engine.Request, bool) {
	if st.Certain || st.Threshold > 0 {
		return engine.Request{}, false
	}
	req := engine.Request{
		QueryOID: st.QueryOID, Tb: st.Tb, Te: st.Te,
		OID: st.TargetOID, K: st.Rank, X: st.Percent, T: st.FixedT,
		Where: st.Where,
	}
	ranked := st.Rank > 0
	switch {
	case st.Quant == QuantAt && st.AllObjects && ranked:
		req.Kind = engine.KindAllRankAt
	case st.Quant == QuantAt && st.AllObjects:
		req.Kind = engine.KindAllNNAt
	case st.Quant == QuantAt && ranked:
		req.Kind = engine.KindRankAt
	case st.Quant == QuantAt:
		req.Kind = engine.KindNNAt
	case st.AllObjects && ranked:
		req.Kind = map[Quantifier]engine.Kind{
			QuantExists: engine.KindUQ41, QuantForAll: engine.KindUQ42, QuantAtLeast: engine.KindUQ43,
		}[st.Quant]
	case st.AllObjects:
		req.Kind = map[Quantifier]engine.Kind{
			QuantExists: engine.KindUQ31, QuantForAll: engine.KindUQ32, QuantAtLeast: engine.KindUQ33,
		}[st.Quant]
	case ranked:
		req.Kind = map[Quantifier]engine.Kind{
			QuantExists: engine.KindUQ21, QuantForAll: engine.KindUQ22, QuantAtLeast: engine.KindUQ23,
		}[st.Quant]
	default:
		req.Kind = map[Quantifier]engine.Kind{
			QuantExists: engine.KindUQ11, QuantForAll: engine.KindUQ12, QuantAtLeast: engine.KindUQ13,
		}[st.Quant]
	}
	if req.Kind == "" {
		return engine.Request{}, false
	}
	return req, true
}
