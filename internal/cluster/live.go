package cluster

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/trajectory"
)

// This file is the cluster face of the live layer: Ingest routes update
// batches to the owning shards by Hash, ZoneProfile exposes the
// bound-exchange machinery as a subscription fingerprint, and
// NewRouterHub mounts a continuous.Hub on the router so standing
// subscriptions stay fresh across shards — cross-shard diffs merge
// through exactly the same two-phase exchange the query path uses.

// Ingest applies an update batch across the cluster: each update goes to
// the shard Hash locates for its OID, an insert of a new object included,
// so updates to one OID keep their relative order, and outcomes return in
// input order. On error, updates already shipped to shards stand
// (per-shard batches stop at their first failure, like
// mod.ApplyUpdates); callers holding subscriptions get their profiles
// invalidated by the hub.
func (r *Router) Ingest(ctx context.Context, updates []mod.Update) ([]mod.Applied, error) {
	if r == nil {
		return nil, ErrNoRouter
	}
	if ctx == nil {
		ctx = context.Background()
	}
	perShard := make([][]mod.Update, len(r.shards))
	perShardIdx := make([][]int, len(r.shards))
	for i, u := range updates {
		si := Hash{}.Locate(u.OID, len(r.shards))
		perShard[si] = append(perShard[si], u)
		perShardIdx[si] = append(perShardIdx[si], i)
	}
	replies, _, err := scatter(ctx, r.shards, false, func(ctx context.Context, i int, s Shard) ([]mod.Applied, error) {
		if len(perShard[i]) == 0 {
			return nil, nil
		}
		return s.Ingest(ctx, perShard[i])
	})
	if err != nil {
		return nil, err
	}
	out := make([]mod.Applied, len(updates))
	for si, applied := range replies {
		if len(applied) != len(perShard[si]) {
			return nil, fmt.Errorf("%w: shard %s applied %d of %d updates",
				ErrProtocol, r.shards[si].Name(), len(applied), len(perShard[si]))
		}
		for j, a := range applied {
			out[perShardIdx[si][j]] = a
		}
	}
	return out, nil
}

// ZoneProfile runs the bound exchange for (qOID, [tb, te]) at rank k and
// returns the query trajectory, the deterministic slice cuts, the merged
// global per-slice envelope bounds, and the sorted global survivor OIDs.
// It is the standalone observability face of the exchange (what would a
// subscription on this request depend on right now?); the router hub
// itself never calls it — routerBackend.Evaluate derives the same triple
// from the exchange its answer already ran.
func (r *Router) ZoneProfile(ctx context.Context, qOID int64, tb, te float64, k int) (*trajectory.Trajectory, []float64, []float64, []int64, error) {
	if r == nil {
		return nil, nil, nil, nil, ErrNoRouter
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 1 {
		k = 1
	}
	q, _, err := r.getTrajectory(ctx, qOID)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	bounds, phase2, _, err := r.exchange(ctx, q, tb, te, k, nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var ids []int64
	for _, reply := range phase2 {
		for _, tr := range reply.trs {
			if tr.OID != qOID {
				ids = append(ids, tr.OID)
			}
		}
	}
	slices.Sort(ids)
	return q, prune.SliceCuts(q, tb, te), bounds, ids, nil
}

// routerBackend adapts a Router to the continuous.Backend contract.
type routerBackend struct{ r *Router }

func (b routerBackend) Apply(ctx context.Context, updates []mod.Update) ([]mod.Applied, error) {
	return b.r.Ingest(ctx, updates)
}

// Evaluate answers through the router and derives the zone profile from
// the same bound-exchange round the answer used — the gathered survivors
// are the superset and the merged global bounds are the per-slice
// envelope bounds, so a subscription re-evaluation costs exactly one
// exchange, not two. (The gather may have run at a deeper rank than the
// request when a batch shared it; deeper-rank bounds sit above the
// request's envelope level, which only makes the dirty test more
// conservative.)
func (b routerBackend) Evaluate(ctx context.Context, req engine.Request) (engine.Result, *continuous.Profile, error) {
	if b.r == nil {
		return engine.Result{Kind: req.Kind, Err: ErrNoRouter}, nil, ErrNoRouter
	}
	if ctx == nil {
		ctx = context.Background()
	}
	res, g, err := b.r.dispatch(ctx, req, req.Rank(), nil)
	if err != nil {
		return res, nil, err
	}
	if g == nil || g.q == nil || g.bounds == nil || !req.Kind.NeedsProcessor() {
		return res, nil, nil // unbounded fingerprint: always dirty, never wrong
	}
	if len(g.missing) > 0 {
		// A degraded round's survivor superset is missing whole shards;
		// fingerprinting it would let updates to their objects slip past
		// the dirty test after the shard heals. Unbounded instead.
		return res, nil, nil
	}
	set := make(map[int64]struct{}, g.store.Len())
	for _, id := range g.store.OIDs() {
		if id != g.q.OID {
			set[id] = struct{}{}
		}
	}
	prof := &continuous.Profile{
		Query:    g.q,
		Cuts:     prune.SliceCuts(g.q, req.Tb, req.Te),
		Bounds:   g.bounds,
		Superset: set,
	}
	return res, prof, nil
}

func (b routerBackend) Radius() float64 { return b.r.spec.R }

// ForEachIndex lends the hub the inner engine's worker pool: a batch's
// dirty subscriptions run their exchanges side by side on it (dispatch
// keeps its state per call).
func (b routerBackend) ForEachIndex(ctx context.Context, n int, fn func(i int) error) error {
	return b.r.inner.ForEachIndex(ctx, n, fn)
}

// NewRouterHub mounts a continuous-query hub on the router: Subscribe
// registers standing requests evaluated through the sharded bound
// exchange, Ingest routes updates to the owning shards and re-evaluates
// only the subscriptions the batch can affect, and the emitted diff
// events are byte-identical to a single-store hub over the union of the
// shards (the simulation harness pins this).
func NewRouterHub(r *Router) *continuous.Hub {
	return continuous.New(routerBackend{r: r})
}
