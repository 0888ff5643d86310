// The sweep session every pre-pass entry point runs on. The two phases of
// the shard protocol — SliceBoundsWhere (probe) and
// SurvivorsWithBoundsWhere (sweep against the broadcast global bound) — arrive
// as separate calls per shard per query, and a ranked request on the single
// store probes and sweeps once per rank; a Sweep captures what all of them
// share per (store-version, query, window) once. A SweepCache keys live
// sessions by store version so a mutation naturally invalidates them.
package prune

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/sindex"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// sweepCacheCap bounds a SweepCache: entries are evicted least-recently
// used. A shard serving a batch touches one session per (query, window)
// group, so a small cap covers the working set.
const sweepCacheCap = 16

// Sweep is one candidate pre-pass session for a fixed (query, window): a
// consistent store snapshot in OID order (under a predicate, the query plus
// the matching objects), the OIDs beside it — an OID resolves to its
// snapshot slot by binary search, so no per-query lookup table is built —
// the pre-pass index, the deterministic slice cuts with the query's
// position at each, and the probe passes of every width asked so far.
// Every phase and rank runs against this one snapshot, which is the
// consistency the bound exchange needs between its two calls and a ranked
// request between its two passes. A Sweep is safe for concurrent use: the
// captured state is read-only and the probe-pass memo is guarded.
type Sweep struct {
	trs        []*trajectory.Trajectory
	oids       []int64 // trs[i].OID
	version    uint64  // the store version the snapshot was taken at
	candidates int     // non-query objects in the snapshot
	idx        *sindex.RTree
	r          float64
	q          *trajectory.Trajectory
	tb, te     float64
	// stale records that a mutation slipped between the snapshot and the
	// index build; every phase then degrades to its trivially sound answer
	// (+Inf bounds, keep-all survivors).
	stale bool
	// boost widens the probe phase's KNN k (capped at maxProbes): under
	// a predicate the snapshot holds matching objects only, but the
	// spatial index surfaces nearest entries of any tag, so a wider
	// probe keeps the envelope bound usable when matches are sparse.
	boost int
	cuts  []float64    // nil for a degenerate window
	qpos  []geom.Point // q.At(cuts[i]); q is linear between consecutive cuts

	mu     sync.Mutex
	passes []probePass // one per probe width asked so far
}

// newSweep opens a session for q over [tb, te] against the store's current
// contents. A degenerate window gets no cuts and degrades like a stale
// snapshot.
func newSweep(store *mod.Store, q *trajectory.Trajectory, tb, te float64, where *textidx.Predicate) *Sweep {
	s := takeSnapshot(store, q, where)
	s.r, s.q, s.tb, s.te = store.Radius(), q, tb, te
	s.candidates = len(s.trs)
	if _, ok := s.slot(q.OID); ok {
		s.candidates--
	}
	if te > tb {
		s.cuts = sliceTimes(q, tb, te, targetSlices)
		s.qpos = make([]geom.Point, len(s.cuts))
		for i, t := range s.cuts {
			s.qpos[i] = q.At(t)
		}
	}
	return s
}

// NewSweepWhere opens a sweep session for q over [tb, te] against the
// store's current contents; the window must be increasing. With a non-nil
// where (see where.go) the session's snapshot holds q plus matching
// objects only, so both protocol phases — and hence the cluster bound
// exchange — speak exclusively about the matching universe.
func NewSweepWhere(store *mod.Store, q *trajectory.Trajectory, tb, te float64, where *textidx.Predicate) (*Sweep, error) {
	if !(te > tb) {
		return nil, fmt.Errorf("prune: bad slice window [%g, %g]", tb, te)
	}
	return newSweep(store, q, tb, te, where), nil
}

// Bounds is the probe phase: per SliceCuts(q, tb, te) slice, an upper
// bound on the Level-k lower envelope of this session's snapshot (see
// SliceBoundsWhere for the soundness argument). A stale session reports +Inf
// everywhere, which bounds nothing and is always sound.
func (s *Sweep) Bounds(ctx context.Context, k int) ([]float64, error) {
	if k < 1 {
		k = 1
	}
	if s.stale {
		bounds := make([]float64, len(s.cuts)-1)
		for i := range bounds {
			bounds[i] = math.Inf(1)
		}
		return bounds, nil
	}
	rb, err := s.rankBounds(ctx, k)
	return rb.bounds, err
}

// Survivors is the sweep phase under imposed per-slice bounds (see
// SurvivorsWithBoundsWhere for the protocol contract). A stale session keeps
// everything from its snapshot.
func (s *Sweep) Survivors(ctx context.Context, bounds []float64) ([]*trajectory.Trajectory, Stats, error) {
	if s.stale {
		out := s.all()
		return out, Stats{Candidates: s.candidates, Survivors: len(out)}, nil
	}
	out, err := s.sweep(ctx, bounds)
	return out, Stats{Candidates: s.candidates, Survivors: len(out), Slices: len(bounds)}, err
}

// all returns every non-query trajectory of the snapshot — what a phase
// keeps when it cannot bound.
func (s *Sweep) all() []*trajectory.Trajectory {
	out := make([]*trajectory.Trajectory, 0, s.candidates)
	for _, tr := range s.trs {
		if tr.OID != s.q.OID {
			out = append(out, tr)
		}
	}
	return out
}

// sweepKey identifies a live session: the store version pins the snapshot
// (one SweepCache serves one store), the rest the (query, window). The
// query is keyed by pointer, not OID: trajectories are immutable (every
// store update allocates a replacement), so a pointer pins the exact
// geometry — crucial when the query object lives on a *different* shard
// and its revision does not bump this store's version.
type sweepKey struct {
	version uint64
	q       *trajectory.Trajectory
	tb, te  float64
	where   string // canonical predicate key ("" = unfiltered)
}

// SweepCache memoizes Sweep sessions per (store-version, query, window)
// so the two protocol phases — and repeated queries in a batch — share
// one snapshot table and index handle. Safe for concurrent use. The zero
// value is ready; one cache serves exactly one store.
type SweepCache struct {
	mu    sync.Mutex
	m     map[sweepKey]*Sweep
	order []sweepKey // recency order, oldest first
}

// ForWhere returns the cached session for (q, tb, te, where) at the
// store's current version, opening one on miss. Version-bumped entries
// become unreachable and are evicted as the LRU order churns. Sessions are
// keyed by the predicate's canonical key, so filtered and unfiltered
// phases of the same (query, window) never share a snapshot.
func (c *SweepCache) ForWhere(store *mod.Store, q *trajectory.Trajectory, tb, te float64, where *textidx.Predicate) (*Sweep, error) {
	key := sweepKey{version: store.Version(), q: q, tb: tb, te: te, where: where.Key()}
	c.mu.Lock()
	if s, ok := c.m[key]; ok {
		c.touchLocked(key)
		c.mu.Unlock()
		return s, nil
	}
	c.mu.Unlock()
	// Build outside the lock: sessions cost O(N) and concurrent misses on
	// distinct keys must not serialize. A racing duplicate build for the
	// same key is harmless — last insert wins, both sessions are valid.
	s, err := NewSweepWhere(store, q, tb, te, where)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[sweepKey]*Sweep)
	}
	if _, ok := c.m[key]; !ok {
		c.order = append(c.order, key)
	}
	c.m[key] = s
	c.touchLocked(key)
	for len(c.order) > sweepCacheCap {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
	c.mu.Unlock()
	return s, nil
}

// touchLocked moves key to the most-recently-used end. Caller holds c.mu.
func (c *SweepCache) touchLocked(key sweepKey) {
	for i, k := range c.order {
		if k == key {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = key
			return
		}
	}
}
