// Refinement of a proven survivor set over a gathered union store: the
// body of cluster.Shard.Refine, which both shard kinds run in the
// caller's process. A cluster router does not come here — it evaluates
// on the processor its own gather built, through Evaluate.
package engine

import (
	"context"
	"fmt"

	"repro/internal/mod"
	"repro/internal/pool"
	"repro/internal/queries"
)

// DoRestricted evaluates a whole-MOD filter request over store, a
// survivor set a bound exchange already proved, with the candidate domain
// restricted to own, a sorted OID list (nil restricts to nothing). It is
// the verify half of filter-and-verify and never filters again: one whole
// build over every object of store — no index build, probe or sweep, and
// no memo entry — then Evaluate. Non-filter kinds are rejected with
// ErrBadKind.
func (e *Engine) DoRestricted(ctx context.Context, store *mod.Store, req Request, own []int64) (Result, error) {
	fail := func(err error) (Result, error) { return Result{Kind: req.Kind, Err: err}, err }
	req, err := req.Normalize()
	if err != nil {
		return fail(err)
	}
	if !req.Kind.IsWholeMODFilter() {
		return fail(fmt.Errorf("%w: %q is not a whole-MOD filter kind", ErrBadKind, req.Kind))
	}
	if err := pool.CtxErr(ctx); err != nil {
		return fail(err)
	}
	q, err := store.Get(req.QueryOID)
	if err != nil {
		return fail(fmt.Errorf("engine: query trajectory: %w", err))
	}
	proc, err := queries.NewProcessorOn(ctx, e.pool, matchingTrajectories(store, req.Where), q, req.Tb, req.Te, store.Radius(), nil, nil)
	if err != nil {
		return fail(err)
	}
	if own == nil {
		own = []int64{}
	}
	return e.Evaluate(ctx, store, proc, req, own)
}
