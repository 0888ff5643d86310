// Shard-local refinement: the engine-side half of the cluster's
// distributed refine protocol. After the router's bound exchange settles
// the union survivor set, each shard evaluates the whole-MOD filter kinds
// over the union store with the candidate domain restricted to the
// survivors that shard itself contributed — DoRestricted is that entry
// point. Because the union of the disjoint per-shard domains is exactly
// the central filter domain (globally pruned objects answer false on
// every filter kind), unioning the per-shard answer lists reproduces the
// central answer byte for byte.
package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mod"
)

// DoRestricted evaluates a whole-MOD filter request with the candidate
// domain restricted to own, a sorted OID list (a shard's share of the
// union survivor set). The preprocessing runs over the full store — the
// envelope must be the global one for the answer to be sound — but the
// per-object membership tests only visit own, so K shards splitting a
// survivor set between them collectively do the same filter work as one
// central engine. Non-filter kinds are rejected with ErrBadKind: the
// router keeps single-object and bool kinds central.
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
	if err := ctxErr(ctx); err != nil {
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
