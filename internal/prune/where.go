package prune

import (
	"context"

	"repro/internal/mod"
	"repro/internal/pool"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// This file is the spatio-textual half of the candidate pre-pass. A
// predicate query runs over the sub-MOD of matching objects — filtered
// objects do not block, do not shape the envelope, and cannot answer —
// so the pre-pass restricts its snapshot to the query trajectory plus
// the objects whose tag sets satisfy the predicate *before* any
// envelope bound is probed or any distance function built. The answer
// is byte-identical to rebuilding a store from only the matching
// trajectories and running the unfiltered pipeline.
//
// There is one index path: the filtered sweep walks the same segment
// R-tree as the unfiltered one, and a non-matching
// nomination dies at the snapshot's OID table, which only holds matching
// objects. The per-slice envelope bounds are likewise probed against
// matching objects only (a non-matching probe would bound the wrong
// universe's envelope — unsound for the sub-MOD). Because the spatial KNN
// probe surfaces nearest objects of *any* tag, the filtered probe widens
// its k to keep a usable bound when matching objects are sparse.

// predProbeBoost multiplies the probe phase's KNN search width under a
// predicate: the spatial index knows nothing about tags, so of the k
// nearest entries only a fraction may match. Capped at maxProbes in
// probeWidth.
const predProbeBoost = 4

// takeSnapshot captures a session's consistent pre-pass view — snapshot,
// OID table, index, degrade state — restricted to q plus the
// predicate-matching objects when where is non-nil (which must be
// normalized), matched against the View's own tag sets and copied into
// slices of exactly the matching size. stale degrade keeps every
// *matching* object — the filter is semantics, never dropped; only the
// index acceleration is.
func takeSnapshot(store *mod.Store, q *trajectory.Trajectory, where *textidx.Predicate) *Sweep {
	if where == nil {
		v := store.View()
		return &Sweep{trs: v.Trajs, oids: v.OIDs, view: v, idx: store.BuildIndex(0), stale: store.Version() != v.Version, boost: 1}
	}
	v := store.TaggedView()
	n := 0
	for i, oid := range v.OIDs {
		if oid == q.OID || where.Matches(v.Tags[i]) {
			n++
		}
	}
	s := &Sweep{trs: make([]*trajectory.Trajectory, 0, n), oids: make([]int64, 0, n), view: v, boost: predProbeBoost}
	for i, oid := range v.OIDs {
		if oid == q.OID || where.Matches(v.Tags[i]) {
			s.trs = append(s.trs, v.Trajs[i])
			s.oids = append(s.oids, oid)
		}
	}
	s.idx = store.BuildIndex(0)
	s.stale = store.Version() != v.Version
	return s
}

// ZoneWhereCtx computes a conservative superset of the objects whose
// difference-distance function to q can come within 4r (plus Margin) of
// the Level-k lower envelope somewhere in [tb, te] — sorted, never
// containing q's own OID — together with the per-slice envelope bounds and
// cuts the sweep used, in one pass over the index and from one snapshot.
// The per-slice upper bound probes the index for the k nearest entries and
// takes the k-th smallest exact maximum distance: at any instant those k
// functions all sit below it, so so does the pointwise k-th smallest. With
// a non-nil where, superset, cuts and bounds all speak about the matching
// sub-MOD only. On a concurrent store mutation mid-pass — and for a
// degenerate window or an empty store — the function degrades to "keep
// everything" with nil bounds, which is always sound and which callers
// must treat as always-dirty.
func ZoneWhereCtx(ctx context.Context, store *mod.Store, q *trajectory.Trajectory, tb, te float64, k int, where *textidx.Predicate) (ids []int64, cuts, bounds []float64, st Stats, err error) {
	s := newSweep(store, q, tb, te, where)
	ids, bounds, st, err = s.zone(ctx, k)
	if bounds != nil {
		cuts = s.cuts
	}
	return ids, cuts, bounds, st, err
}

// ForQueryWhereCtx builds an index-pruned queries.Processor for q over
// [tb, te] against the store's current contents. Every UQ11..UQ43 variant,
// the fixed-time instant predicates, and the guaranteed/threshold
// extensions answer identically to queries.NewProcessor(store.All(), ...),
// including error behavior; with a non-nil where the processor holds only q
// (exempt: a query *about* a non-matching object over the matching fleet is
// well-formed) and the matching objects, so it answers exactly as if the
// others did not exist. The build checks the window against the store
// View's cover, which bounds the filtered snapshot too, and checks the
// pruned candidates one by one only when the cover does not admit the
// window. The candidate sweep checks ctx per slice and the processor
// construction per survivor, so canceling a request stops the
// preprocessing early. The returned processor carries a rank expander
// over the same snapshot, so rank-k queries (k >= 2) grow the survivor
// basis by re-probing the index at rank k instead of falling back to the
// lazy full function build. The probe, the zone tests, the build and the
// processor's lazy steps run on pl (nil: on the caller), with the same
// answer and the same context checks at any worker count.
func ForQueryWhereCtx(ctx context.Context, pl *pool.Pool, store *mod.Store, q *trajectory.Trajectory, tb, te float64, where *textidx.Predicate) (*queries.Processor, error) {
	s := newSweep(store, q, tb, te, where)
	s.pool = pl
	if s.stale {
		return queries.NewProcessorOn(ctx, pl, s.trs, q, tb, te, s.r, nil, nil)
	}
	survivors, bounds, _, err := s.zone(ctx, 1)
	if err != nil {
		return nil, err
	}
	start, end := s.view.Cover()
	proc, err := queries.NewProcessorOn(ctx, pl, s.trs, q, tb, te, s.r, survivors, &queries.Cover{Start: start, End: end})
	if err != nil || bounds == nil {
		return proc, err
	}
	proc.SetRankExpander(func(ctx context.Context, k int) ([]int64, error) {
		ids, _, _, err := s.zone(ctx, k)
		return ids, err
	})
	proc.SetSliceBounds(func(ctx context.Context, k int) (cuts, bounds []float64, err error) {
		rb, err := s.rankBounds(ctx, k)
		return s.cuts, rb.bounds, err
	})
	return proc, nil
}

// SliceBoundsWhere computes, for each slice of SliceCuts(q, tb, te), an
// upper bound on the Level-k lower envelope of the store's (matching)
// objects against q: the k-th smallest exact maximum distance over the
// slice among the probe pool, the objects a few index KNN searches along
// the window found (see Sweep.probe). A store that cannot bound (a pool
// of fewer than k objects) reports +Inf. Every finite
// value is the slice maximum of an actual stored (matching) object's
// distance from q, so the bounds stay sound against any superset of the
// store's objects — which is what lets a cluster router take the
// elementwise minimum of per-shard bounds as a bound on the (matching
// universe's) global envelope.
func SliceBoundsWhere(ctx context.Context, store *mod.Store, q *trajectory.Trajectory, tb, te float64, k int, where *textidx.Predicate) ([]float64, error) {
	s, err := NewSweepWhere(store, q, tb, te, where)
	if err != nil {
		return nil, err
	}
	return s.Bounds(ctx, k)
}

// SurvivorsWithBoundsWhere runs the candidate sweep under imposed
// per-slice envelope bounds (one value per SliceCuts(q, tb, te) slice, +Inf
// meaning unbounded): a (matching) object survives when some slice puts its
// exact minimum distance from q within bounds[i] + 4r + Margin. With the
// bounds from this store's own SliceBoundsWhere the result is exactly
// ZoneWhereCtx's superset; with the elementwise minimum of several shards'
// bounds it is the phase-2 shard sweep of the cluster protocol — the shard
// survivor sets together form a conservative superset of the global
// 4r-zone members, because every object achieving the global envelope
// somewhere in a slice passes its own shard's test against the global
// bound. Survivors are returned as trajectories (sorted by OID) so a shard
// can ship them to the router without a re-lookup race against concurrent
// mutations.
func SurvivorsWithBoundsWhere(ctx context.Context, store *mod.Store, q *trajectory.Trajectory, tb, te float64, bounds []float64, where *textidx.Predicate) ([]*trajectory.Trajectory, Stats, error) {
	s, err := NewSweepWhere(store, q, tb, te, where)
	if err != nil {
		return nil, Stats{}, err
	}
	return s.Survivors(ctx, bounds)
}
