// Package prune is the index-accelerated candidate pre-pass between the
// MOD store and the query processor: before paying the O(N·m) distance-
// function construction and O(N log N) envelope preprocessing over every
// trajectory, it consults the store's spatial index to discard objects
// that provably cannot enter the 4r pruning zone of the paper's Section
// 3.2 anywhere in the query window.
//
// The bound is built per time slice of the query trajectory's corridor
// (its vertex times, subdivided so slices stay short):
//
//  1. U(slice) — an upper bound on the Level-1 lower envelope over the
//     slice — is the smallest, over a handful of R-tree KNN probes at the
//     slice midpoint, of the probe's exact maximum distance from the
//     query during the slice. For any t in the slice the envelope value
//     min_j d_j(t) is at most that probe's distance, so U is sound.
//  2. Every object with a segment entry intersecting the query corridor's
//     bounding box expanded by U + 4r + Margin during the slice survives.
//     An object in the zone at time t has d_i(t) <= env(t) + 4r <=
//     U + 4r, and the box distance between its (r-expanded) segment entry
//     and the corridor box lower-bounds d_i(t), so no zone member is ever
//     discarded: survivors are a conservative superset.
//
// The survivor set feeds queries.NewProcessorPruned, which answers every
// UQ variant identically to a full-scan Processor while building distance
// functions only for survivors.
//
// Every entry point takes a nil-able *textidx.Predicate (see where.go): nil
// runs over the whole MOD, non-nil over the matching sub-MOD. One-shot
// forms (ZoneWhereCtx, ForQueryWhereCtx, SliceBoundsWhere,
// SurvivorsWithBoundsWhere) open a Sweep session per call; NewSweepWhere
// and SweepCache keep one across the phases of the cluster bound exchange.
package prune

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/sindex"
	"repro/internal/trajectory"
)

// ctxErr mirrors the engine's deadline-aware context check: a short
// deadline on a busy single-core host can expire before the runtime
// schedules the timer goroutine that cancels the context, and the sweep's
// per-slice checkpoints must not sail past it just because the timer has
// not fired yet.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// Margin is the safety slack (in distance units) added to the 4r zone
// width. It dominates the TimeEps tolerance the fixed-time membership
// tests allow, so an object outside the widened bound fails even the
// eps-slackened instant predicates — the conservative-correctness
// guarantee the pruned processor relies on.
const Margin = 1e-6

// kProbe is the number of distinct index KNN probes evaluated per slice
// midpoint for the envelope upper bound.
const kProbe = 8

// targetSlices is the subdivision target: query-vertex slices longer than
// window/targetSlices are split, keeping per-slice corridors (and hence
// the search boxes) tight without a per-object pass.
const targetSlices = 32

// Stats describes one candidate pre-pass. The JSON tags are the wire
// format the cluster survivors phase reports per shard.
type Stats struct {
	Candidates int  `json:"candidates"`           // non-query objects in the snapshot
	Survivors  int  `json:"survivors"`            // objects the index could not rule out
	Slices     int  `json:"slices"`               // time slices probed
	Probes     int  `json:"probes"`               // KNN probe distance evaluations
	Predictive bool `json:"predictive,omitempty"` // pre-pass ran on the TPR predictive index
}

// corridorIndex is the index surface the two pre-pass phases need: KNN
// probe selection at an instant and conservative corridor range hits over
// a slice. The segment R-tree is the default; a store with a pinned
// predictive TPR coverage answers covered windows through the TPR tree
// instead (no rebuild under live ingest). Both only *select* candidates —
// every hit is refined against the exact trajectory — so the two paths
// answer queries identically even though their candidate supersets differ.
type corridorIndex interface {
	probe(p geom.Point, t float64, k int) []sindex.Neighbor
	corridorHits(box geom.AABB, t0, t1 float64) []int64
}

// rtreeIndex adapts the segment R-tree (entries pre-expanded by r).
type rtreeIndex struct{ t *sindex.RTree }

func (x rtreeIndex) probe(p geom.Point, t float64, k int) []sindex.Neighbor {
	return x.t.KNN(p, t, k)
}
func (x rtreeIndex) corridorHits(box geom.AABB, t0, t1 float64) []int64 {
	return x.t.SearchRange(box, t0, t1)
}

// tprIndex adapts the predictive TPR tree. Its moving entries are exact
// expected positions, not r-expanded boxes, so the query box is expanded
// by r here — for axis-aligned boxes, expanding the query side is the
// same intersection test as expanding the entry side.
type tprIndex struct {
	t *sindex.TPRTree
	r float64
}

func (x tprIndex) probe(p geom.Point, t float64, k int) []sindex.Neighbor {
	return x.t.KNNAt(p, t, k)
}
func (x tprIndex) corridorHits(box geom.AABB, t0, t1 float64) []int64 {
	return x.t.SearchInterval(box.Expand(x.r), t0, t1)
}

// indexFor picks the pre-pass index for a window: the pinned predictive
// TPR tree when its coverage contains [tb, te] (PredictiveFor may first
// auto-advance the pin forward to cover it), else the lazily maintained
// segment R-tree. predictive reports which path was taken (Stats).
func indexFor(store *mod.Store, tb, te float64) (idx corridorIndex, predictive bool) {
	if tpr, refT, horizon, ok := store.PredictiveFor(tb, te); ok && tb >= refT && te <= refT+horizon {
		return tprIndex{t: tpr, r: store.Radius()}, true
	}
	return rtreeIndex{t: store.BuildIndex(0)}, false
}

// SliceCuts returns the deterministic slice boundaries the candidate
// pre-pass sweeps for query trajectory q over [tb, te]: q's vertex times
// clipped to the window, subdivided so slices stay short. Both phases of
// the cluster bound-exchange protocol key their per-slice values to these
// cuts — they depend only on (q, tb, te), so every shard derives the same
// slicing independently and per-slice bounds are elementwise comparable
// across shards.
func SliceCuts(q *trajectory.Trajectory, tb, te float64) []float64 {
	return sliceTimes(q, tb, te, targetSlices)
}

// candidates runs the slice sweep over one consistent snapshot, bounding
// the Level-k envelope per slice (k == 1 is the classic pass): the probe
// phase (sliceBounds) followed by the sweep against those bounds. It
// returns the survivor OIDs with the cuts and bounds the sweep used; a
// degenerate window or an empty snapshot keeps everything (nil bounds) and
// lets processor construction report the precise error.
func candidates(ctx context.Context, trs []*trajectory.Trajectory, idx corridorIndex, r float64, q *trajectory.Trajectory, tb, te float64, k, boost int) (ids []int64, cuts, bounds []float64, st Stats, err error) {
	st = Stats{Candidates: candidateCount(trs, q.OID)}
	if te-tb <= 0 || st.Candidates == 0 {
		ids = allOIDs(trs, q.OID)
		st.Survivors = len(ids)
		return ids, nil, nil, st, nil
	}
	state := newSweepState(trs, q, tb, te)
	state.boost = boost
	bounds, probeStats, err := sliceBounds(ctx, state, idx, q, k)
	if err != nil {
		return nil, nil, nil, st, err
	}
	kept, _, err := sweepBounds(ctx, state, trs, idx, r, q, bounds)
	if err != nil {
		return nil, nil, nil, st, err
	}
	st.Slices, st.Probes = probeStats.Slices, probeStats.Probes
	ids = make([]int64, len(kept))
	for i, tr := range kept {
		ids[i] = tr.OID
	}
	st.Survivors = len(ids)
	return ids, state.cuts, bounds, st, nil
}

// sweepState is the per-(query, window) state both pre-pass phases
// share — the snapshot lookup table and the deterministic slice cuts —
// built once per query so the single-store path (which runs both phases
// back to back) does not pay the O(N) map construction twice.
type sweepState struct {
	byID map[int64]*trajectory.Trajectory
	cuts []float64
	// boost widens the probe phase's KNN k (capped at maxProbes): under
	// a predicate the snapshot holds matching objects only, but the
	// spatial index surfaces nearest entries of any tag, so a wider
	// probe keeps the envelope bound usable when matches are sparse.
	boost int
}

// maxProbes caps the boosted per-slice probe width.
const maxProbes = 64

func newSweepState(trs []*trajectory.Trajectory, q *trajectory.Trajectory, tb, te float64) sweepState {
	byID := make(map[int64]*trajectory.Trajectory, len(trs))
	for _, tr := range trs {
		byID[tr.OID] = tr
	}
	return sweepState{byID: byID, cuts: sliceTimes(q, tb, te, targetSlices), boost: 1}
}

// sliceBounds is the probe phase: per slice, the k-th smallest exact
// maximum distance among index KNN probes at the slice midpoint. The
// bound is sound for the Level-k envelope because the k probes with the
// smallest exact maximum distance each stay below the k-th smallest value
// throughout the slice, so at every instant at least k functions — and
// hence the pointwise k-th smallest — do.
func sliceBounds(ctx context.Context, state sweepState, idx corridorIndex, q *trajectory.Trajectory, k int) ([]float64, Stats, error) {
	var st Stats
	byID, cuts := state.byID, state.cuts
	// The rank-k bound needs the k-th smallest probe distance, so probe a
	// few extra neighbors beyond k to keep the bound tight.
	probes := kProbe
	if k+4 > probes {
		probes = k + 4
	}
	if state.boost > 1 {
		probes *= state.boost
		if probes > maxProbes {
			probes = maxProbes
		}
	}
	bounds := make([]float64, len(cuts)-1)
	dists := make([]float64, 0, probes)
	for i := 1; i < len(cuts); i++ {
		if err := ctxErr(ctx); err != nil {
			return nil, st, err
		}
		t0, t1 := cuts[i-1], cuts[i]
		st.Slices++
		mid := 0.5 * (t0 + t1)
		dists = dists[:0]
		for _, nb := range idx.probe(q.At(mid), mid, probes) {
			if nb.ID == q.OID {
				continue
			}
			tr, ok := byID[nb.ID]
			if !ok {
				continue
			}
			st.Probes++
			dists = append(dists, maxDistOverSlice(tr, q, t0, t1))
		}
		u := math.Inf(1)
		if len(dists) >= k {
			slices.Sort(dists)
			u = dists[k-1]
		}
		bounds[i-1] = u
	}
	return bounds, st, nil
}

// sweepBounds is the sweep phase: per slice, every object with a segment
// entry intersecting the query corridor expanded by bounds[i] + 4r +
// Margin is refined against its exact minimum crisp distance over the
// slice. A +Inf bound keeps every candidate for that slice (no usable
// bound: trivially sound).
func sweepBounds(ctx context.Context, state sweepState, trs []*trajectory.Trajectory, idx corridorIndex, r float64, q *trajectory.Trajectory, bounds []float64) ([]*trajectory.Trajectory, Stats, error) {
	st := Stats{Candidates: candidateCount(trs, q.OID)}
	byID, cuts := state.byID, state.cuts
	width := 4*r + Margin
	if len(bounds) != len(cuts)-1 {
		return nil, st, fmt.Errorf("prune: got %d slice bounds for %d slices", len(bounds), len(cuts)-1)
	}
	survivors := make(map[int64]struct{})
	for i := 1; i < len(cuts); i++ {
		if err := ctxErr(ctx); err != nil {
			return nil, st, err
		}
		t0, t1 := cuts[i-1], cuts[i]
		st.Slices++
		u := bounds[i-1]
		if math.IsInf(u, 1) {
			// No usable bound for this slice: keep every candidate, which
			// is trivially sound.
			for _, tr := range trs {
				if tr.OID != q.OID {
					survivors[tr.OID] = struct{}{}
				}
			}
			continue
		}
		a, b := q.At(t0), q.At(t1)
		qbox := geom.AABBOf(a, b)
		// The index pass over-approximates twice: segment entry boxes span
		// whole segments (not just this slice), and box distance is an L∞
		// test. Refine each hit with the exact minimum crisp distance over
		// the slice — still conservative (a zone member at t has
		// d(t) <= u + 4r, so its slice minimum passes), but it rejects
		// objects whose segment boxes merely graze the corridor.
		// SearchRange emits one hit per segment entry; sorting first lets
		// a rejected object skip its duplicate entries in this slice.
		hits := idx.corridorHits(qbox.Expand(u+width), t0, t1)
		slices.Sort(hits)
		for i, id := range hits {
			if id == q.OID || (i > 0 && id == hits[i-1]) {
				continue
			}
			if _, ok := survivors[id]; ok {
				continue
			}
			tr, ok := byID[id]
			if !ok {
				continue
			}
			if minDistOverSlice(tr, q, t0, t1) <= u+width {
				survivors[id] = struct{}{}
			}
		}
	}
	ids := make([]int64, 0, len(survivors))
	for id := range survivors {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	st.Survivors = len(ids)
	out := make([]*trajectory.Trajectory, len(ids))
	for i, id := range ids {
		out[i] = byID[id]
	}
	return out, st, nil
}

// maxDistOverSlice returns the exact maximum over [t0, t1] of the distance
// between the expected positions of a and b. Between vertex times the
// squared distance is a convex parabola in t, so the maximum over every
// elementary interval sits at one of its endpoints.
func maxDistOverSlice(a, b *trajectory.Trajectory, t0, t1 float64) float64 {
	best := math.Max(a.At(t0).DistSq(b.At(t0)), a.At(t1).DistSq(b.At(t1)))
	for _, tv := range a.VertexTimesWithin(t0, t1) {
		if d := a.At(tv).DistSq(b.At(tv)); d > best {
			best = d
		}
	}
	for _, tv := range b.VertexTimesWithin(t0, t1) {
		if d := a.At(tv).DistSq(b.At(tv)); d > best {
			best = d
		}
	}
	return math.Sqrt(best)
}

// minDistOverSlice returns the exact minimum over [t0, t1] of the distance
// between the expected positions of a and b. Per elementary interval the
// relative motion traces a line segment (in the difference frame), so the
// minimum is the segment's distance from the origin.
func minDistOverSlice(a, b *trajectory.Trajectory, t0, t1 float64) float64 {
	cuts := append(a.VertexTimesWithin(t0, t1), b.VertexTimesWithin(t0, t1)...)
	cuts = append(cuts, t0, t1)
	slices.Sort(cuts)
	var origin geom.Point
	best := math.Inf(1)
	for i := 1; i < len(cuts); i++ {
		s0, s1 := cuts[i-1], cuts[i]
		if s1 <= s0 {
			continue
		}
		p0 := a.At(s0).Sub(b.At(s0))
		p1 := a.At(s1).Sub(b.At(s1))
		seg := geom.Segment{A: geom.Point{X: p0.X, Y: p0.Y}, B: geom.Point{X: p1.X, Y: p1.Y}}
		if d := seg.At(seg.ClosestParam(origin)).DistSq(origin); d < best {
			best = d
		}
	}
	return math.Sqrt(best)
}

// MinCrispDist returns the exact minimum over [t0, t1] of the distance
// between the expected positions of a and b. Exported for the
// continuous-query layer, whose dirty test compares an updated object's
// new (and superseded) motion against a subscription's per-slice envelope
// bounds with exactly this refinement.
func MinCrispDist(a, b *trajectory.Trajectory, t0, t1 float64) float64 {
	return minDistOverSlice(a, b, t0, t1)
}

// sliceTimes cuts [tb, te] at q's vertex times and subdivides any slice
// longer than (te-tb)/target so corridor boxes stay tight.
func sliceTimes(q *trajectory.Trajectory, tb, te float64, target int) []float64 {
	base := append([]float64{tb}, q.VertexTimesWithin(tb, te)...)
	base = append(base, te)
	maxLen := (te - tb) / float64(target)
	out := make([]float64, 0, 2*len(base))
	out = append(out, base[0])
	for i := 1; i < len(base); i++ {
		t0, t1 := base[i-1], base[i]
		if n := int((t1 - t0) / maxLen); n > 1 {
			for j := 1; j < n; j++ {
				out = append(out, t0+(t1-t0)*float64(j)/float64(n))
			}
		}
		out = append(out, t1)
	}
	return out
}

func candidateCount(trs []*trajectory.Trajectory, qOID int64) int {
	n := 0
	for _, tr := range trs {
		if tr.OID != qOID {
			n++
		}
	}
	return n
}

// allTrajectories returns every non-query trajectory, sorted by OID.
func allTrajectories(trs []*trajectory.Trajectory, qOID int64) []*trajectory.Trajectory {
	out := make([]*trajectory.Trajectory, 0, len(trs))
	for _, tr := range trs {
		if tr.OID != qOID {
			out = append(out, tr)
		}
	}
	slices.SortFunc(out, func(a, b *trajectory.Trajectory) int {
		return cmp.Compare(a.OID, b.OID)
	})
	return out
}

func allOIDs(trs []*trajectory.Trajectory, qOID int64) []int64 {
	out := make([]int64, 0, len(trs))
	for _, tr := range trs {
		if tr.OID != qOID {
			out = append(out, tr.OID)
		}
	}
	slices.Sort(out)
	return out
}

func statsAll(trs []*trajectory.Trajectory, qOID int64) Stats {
	n := candidateCount(trs, qOID)
	return Stats{Candidates: n, Survivors: n}
}
