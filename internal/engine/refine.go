// Refinement of a proven survivor set: the engine-side half of the
// cluster router's refine. After the router's bound exchange settles the
// union survivor set, the router evaluates the whole-MOD filter kinds
// over the union store on its own engine with the candidate domain
// restricted to the gathered survivors — DoRestricted is that entry
// point. Because that domain is the central filter domain (globally
// pruned objects answer false on every filter kind), the answer equals a
// single-store run byte for byte.
package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mod"
	"repro/internal/queries"
)

// DoRestricted evaluates a whole-MOD filter request with the candidate
// domain restricted to own, a sorted OID list (the router's gathered
// survivors). The preprocessing runs over the full store — the envelope
// must be the global one for the answer to be sound — but the per-object
// membership tests only visit own. Non-filter kinds are rejected with
// ErrBadKind: the router answers single-object and bool kinds through
// Do.
//
// The store is the survivor set a bound exchange just proved, so this is
// the verify half of filter-and-verify and never filters again: the
// processor is built from every object in it — no index build, probe or
// sweep — and memoized apart from Do's pruned build of the same key.
//
// Explain reports the restricted evaluation honestly: Refined is
// len(own) and RefineWall the end-to-end time; Survivors equals
// Candidates, the store's non-query objects (what the exchange pruned,
// shard by shard, is in the router's ShardExplains).
func (e *Engine) DoRestricted(ctx context.Context, store *mod.Store, req Request, own []int64) (Result, error) {
	if e == nil {
		return Result{Kind: req.Kind, Err: ErrNoEngine}, ErrNoEngine
	}
	if ctx == nil {
		ctx = context.Background()
	}
	res := Result{Kind: req.Kind}
	res.Explain.Workers = e.workers
	res.Explain.Refined = len(own)
	start := time.Now()
	fail := func(err error) (Result, error) {
		res.Err = err
		res.Explain.Wall = time.Since(start)
		res.Explain.RefineWall = res.Explain.Wall
		return res, err
	}
	if err := req.Validate(); err != nil {
		return fail(err)
	}
	if !req.Kind.IsWholeMODFilter() {
		return fail(fmt.Errorf("%w: %q is not a whole-MOD filter kind", ErrBadKind, req.Kind))
	}
	if err := queries.CtxErr(ctx); err != nil {
		return fail(err)
	}
	req.Where = req.Where.Canon()
	proc, hit, err := e.processor(ctx, store, req.QueryOID, req.Tb, req.Te, req.Where, true)
	if err != nil {
		return fail(err)
	}
	res.Explain.MemoHit = hit
	res.Explain.Candidates = proc.CandidateCount()
	res.Explain.Survivors = res.Explain.Candidates - proc.PrunedCount()
	if req.Where != nil {
		res.Explain.TextualCandidates = res.Explain.Candidates
		res.Explain.SpatialCandidates = store.Len() - 1
	}
	if k := req.Rank(); k > 1 {
		if err := proc.EnsureLevelsCtx(ctx, k); err != nil {
			return fail(err)
		}
	}
	if own == nil {
		own = []int64{} // non-nil empty: restrict to nothing, not to everything
	}
	item := e.execRequestRestricted(ctx, proc, req, own)
	if item.Err != nil {
		return fail(item.Err)
	}
	res.OIDs = item.OIDs
	res.Explain.Wall = time.Since(start)
	res.Explain.RefineWall = res.Explain.Wall
	return res, nil
}
