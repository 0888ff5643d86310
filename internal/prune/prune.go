// Package prune is the index-accelerated candidate pre-pass between the
// MOD store and the query processor: before paying the O(N·m) distance-
// function construction and O(N log N) envelope preprocessing over every
// trajectory, it consults the store's spatial index to discard objects
// that provably cannot enter the 4r pruning zone of the paper's Section
// 3.2 anywhere in the query window.
//
// The bound is built per time slice of the query trajectory's corridor
// (its vertex times, subdivided so slices stay short; the query moves
// linearly inside every slice):
//
//  1. U(slice) — an upper bound on the Level-1 lower envelope over the
//     slice — is the smallest exact maximum distance from the query during
//     the slice over a pool of probe objects. The pool is gathered once
//     per pass: R-tree KNN searches at the midpoints of every
//     probeStride-th slice and of the last one, their neighbours merged.
//     For any t in the slice the envelope value min_j d_j(t) is at most
//     any one object's distance, so U is sound whichever objects the pool
//     holds — the searches only pick objects likely to make it tight, and
//     nothing requires them to be the nearest at the slice's own midpoint.
//     At rank k the bound is the pool's k-th smallest exact maximum (+Inf
//     when the pool holds fewer than k objects): those k distinct objects
//     each stay below it throughout the slice, so the pointwise k-th
//     smallest distance — the Level-k envelope — does too.
//  2. An object survives when its exact minimum distance from the query
//     over some slice is at most U(slice) + 4r + Margin. An object in the
//     zone at time t has d_i(t) <= env(t) + 4r <= U + 4r, and its minimum
//     over t's slice is at most d_i(t), so no zone member is ever
//     discarded: survivors are a conservative superset. The test is run
//     once per sweep, not once per slice: one walk of the index over the
//     whole window and the union of the slices' corridor boxes (each the
//     query's box over the slice grown by its limit) names the objects
//     with motion anywhere near the corridor, and each of them is then
//     tested against every slice in one time-ordered pass over its *live*
//     plan. The index only nominates — a nomination through a superseded
//     or retired entry is harmless, and none is missed: a survivor is
//     within its slice's limit of the query at some instant, so at that
//     instant it is inside that slice's box, and the index entry of the
//     plan segment it is then on intersects the walked box in space and
//     time.
//
// The survivor set feeds queries.NewProcessorOn, which answers every UQ
// variant identically to a full-scan Processor while building distance
// functions only for survivors. ForQueryWhereCtx hands it the snapshot's
// cover (mod.View.Cover) too, so the build checks the window once instead
// of once per pruned candidate, with the full scan's error either way: a
// cold build's serial work is its survivors' and the store version's, not
// N per query.
//
// Every entry point takes a nil-able *textidx.Predicate (see where.go): nil
// runs over the whole MOD, non-nil — which must be normalized
// (textidx.Predicate.Normalize) — over the matching sub-MOD. All of them
// run on a Sweep — one snapshot, index handle, slicing and OID table per
// (query, window), shared by both phases and every rank: the one-shot
// forms (ZoneWhereCtx, ForQueryWhereCtx, SliceBoundsWhere,
// SurvivorsWithBoundsWhere) open one per call, and ForQueryWhereCtx leaves
// its own behind the processor's rank expander.
//
// ForQueryWhereCtx runs its session on the caller's worker pool (the
// engine's): the slices' pooled distances are evaluated side by side, each
// slice into its own part of the pass, and the walk's nominations are
// zone-tested side by side, each task marking only its own objects; the
// few KNN searches that gather the pool and the index walk stay serial,
// and the walk only collects. Survivors and bounds are the serial session's, and so
// are its context checks. The other one-shot forms are a shard's phases
// and stay serial: the shards of a box already share its cores.
package prune

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/pool"
	"repro/internal/trajectory"
)

// Margin is the safety slack (in distance units) added to the 4r zone
// width. It dominates the TimeEps tolerance the fixed-time membership
// tests allow, so an object outside the widened bound fails even the
// eps-slackened instant predicates — the conservative-correctness
// guarantee the pruned processor relies on.
const Margin = 1e-6

// kProbe is the KNN width of each index search the probe phase runs (at
// rank 1, unfiltered; see probeWidth).
const kProbe = 8

// probeStride is the probe phase's search spacing: one KNN search at the
// midpoint of slices 0, probeStride, 2·probeStride, … and of the last
// slice, and every slice is bounded by the neighbours of all of them.
const probeStride = 8

// targetSlices is the subdivision target: query-vertex slices longer than
// window/targetSlices are split, keeping per-slice corridors (and hence
// the search boxes) tight without a per-object pass.
const targetSlices = 32

// Stats describes one candidate pre-pass. The JSON tags are the wire
// format the cluster survivors phase reports per shard.
type Stats struct {
	Candidates int `json:"candidates"` // non-query objects in the snapshot
	Survivors  int `json:"survivors"`  // objects the index could not rule out
	Slices     int `json:"slices"`     // time slices probed
	Probes     int `json:"probes"`     // probe-pool distance evaluations: pool size × slices
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

// maxProbes caps the boosted per-slice probe width.
const maxProbes = 64

// slot resolves an OID to its position in the snapshot.
func (s *Sweep) slot(oid int64) (int, bool) { return slices.BinarySearch(s.oids, oid) }

// zone runs both phases at rank k (k == 1 is the classic pass): the probe
// phase, then the sweep against its bounds. It returns the survivor OIDs
// with the bounds the sweep used; a stale snapshot, a degenerate window or
// an empty snapshot keeps everything (nil bounds) and lets processor
// construction report the precise error.
func (s *Sweep) zone(ctx context.Context, k int) (ids []int64, bounds []float64, st Stats, err error) {
	st = Stats{Candidates: s.candidates}
	var kept []*trajectory.Trajectory
	if s.stale || len(s.cuts) < 2 || s.candidates == 0 {
		kept = s.all()
	} else {
		rb, err := s.rankBounds(ctx, k)
		if err != nil {
			return nil, nil, st, err
		}
		if kept, err = s.sweep(ctx, rb.bounds); err != nil {
			return nil, nil, st, err
		}
		bounds = rb.bounds
		st.Slices, st.Probes = len(bounds), rb.probes
	}
	st.Survivors = len(kept)
	ids = make([]int64, len(kept))
	for i, tr := range kept {
		ids[i] = tr.OID
	}
	return ids, bounds, st, nil
}

// rankBounds is the probe phase's outcome at one rank: a rank-k request
// sweeps against it, and the continuous layer fingerprints the same
// request with it afterwards without a second probe.
type rankBounds struct {
	bounds []float64
	probes int
}

// probePass is one probe pass at one KNN width, kept with the session:
// the size of the neighbour pool it gathered and, per slice, the pool's
// exact maximum distances over the slice, sorted. Every rank that probes
// at this width — every k <= 4 does — reads its bound off the same lists.
type probePass struct {
	width   int
	per     int       // the pool's size: slice i's distances are dists[i·per:(i+1)·per]
	dists   []float64 // nSlices sorted runs of per, back to back
	nSlices int
	probes  int
}

// probeWidth is the KNN width of the rank-k probe: a few neighbors beyond
// k keep the k-th smallest distance tight, and a filtered session widens
// it further (see Sweep.boost).
func (s *Sweep) probeWidth(k int) int {
	width := max(kProbe, k+4)
	if s.boost > 1 {
		width = min(width*s.boost, maxProbes)
	}
	return width
}

// rankBounds returns the session's probe-phase outcome at rank k, running
// the probe pass of its width on first use (under the lock: callers racing
// on one session wait for the one pass instead of repeating it).
func (s *Sweep) rankBounds(ctx context.Context, k int) (rankBounds, error) {
	width := s.probeWidth(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	i := slices.IndexFunc(s.passes, func(p probePass) bool { return p.width == width })
	if i < 0 {
		p, err := s.probe(ctx, width)
		if err != nil {
			return rankBounds{}, err
		}
		s.passes = append(s.passes, p)
		i = len(s.passes) - 1
	}
	return s.passes[i].rank(k), nil
}

// rank reads the rank-k bounds off the pass: per slice, the k-th smallest
// pooled distance, or +Inf when the pool holds fewer than k objects. Every
// call hands out a fresh bounds slice, which the caller owns.
func (p *probePass) rank(k int) rankBounds {
	rb := rankBounds{bounds: make([]float64, p.nSlices), probes: p.probes}
	for i := range rb.bounds {
		rb.bounds[i] = math.Inf(1)
		if p.per >= k {
			rb.bounds[i] = p.dists[i*p.per+k-1]
		}
	}
	return rb
}

// probeScratch is one probe pass's working memory, pooled across passes:
// the pooled neighbours' snapshot slots.
type probeScratch struct{ slots []int }

var probeScratchPool = sync.Pool{New: func() any { return new(probeScratch) }}

// probe is the probe phase. The index is searched for its width nearest
// entries only at the midpoints of slices 0, probeStride, 2·probeStride, …
// and of the last slice; the neighbours of all those searches form one
// pool (deduplicated, the query and objects outside the snapshot left
// out), and every slice gets the pool's exact maximum distances over it,
// sorted. The k-th smallest is a sound bound on the Level-k envelope
// whichever objects the pool holds: the k with the smallest exact maximum
// distance each stay below it throughout the slice, so at every instant at
// least k functions — and hence the pointwise k-th smallest — do.
func (s *Sweep) probe(ctx context.Context, width int) (probePass, error) {
	n := len(s.cuts) - 1
	sc := probeScratchPool.Get().(*probeScratch)
	defer probeScratchPool.Put(sc)
	nbrs := sc.slots[:0]
	for i := 0; ; i = min(i+probeStride, n-1) {
		mid := 0.5 * (s.cuts[i] + s.cuts[i+1])
		for _, nb := range s.idx.KNN(s.q.At(mid), mid, width) {
			if j, ok := s.slot(nb.ID); ok && nb.ID != s.q.OID {
				nbrs = append(nbrs, j)
			}
		}
		if i == n-1 {
			break
		}
	}
	slices.Sort(nbrs)
	nbrs = slices.Compact(nbrs)
	sc.slots = nbrs
	// The slices are evaluated side by side on the session's pool, each
	// into and sorting its own run of dists.
	per := len(nbrs)
	p := probePass{width: width, per: per, dists: make([]float64, per*n), nSlices: n, probes: per * n}
	err := s.pool.ForEachIndex(ctx, n, func(i int) error {
		t0, t1 := s.cuts[i], s.cuts[i+1]
		d := p.dists[i*per : (i+1)*per]
		for m, j := range nbrs {
			d[m] = maxDistOverSlice(s.trs[j], s.q, t0, t1, s.qpos[i], s.qpos[i+1])
		}
		slices.Sort(d)
		return nil
	})
	if err != nil {
		return probePass{}, err
	}
	return p, nil
}

// sweepScratch is one sweep's working memory, pooled across sweeps: the
// per-slice limits and corridor boxes, and one stamp per snapshot slot.
// A slot's stamp is 2·epoch once this sweep has tested the object and
// 2·epoch+1 once it has kept it; the epoch moves with every sweep, so
// older stamps read as untouched and the table is never cleared.
type sweepScratch struct {
	lim   []float64   // bounds[i] + 4r + Margin
	boxes []geom.AABB // the query's box over slice i, grown by lim[i] + r
	stamp []uint32
	epoch uint32
	named []int32 // the slots the walk nominated, in walk order
}

var scratchPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// begin sizes the scratch for a sweep over slices slices and slots
// snapshot slots and returns the sweep's "tested" stamp.
func (sc *sweepScratch) begin(nSlices, slots int) uint32 {
	sc.lim = slices.Grow(sc.lim[:0], nSlices)[:nSlices]
	sc.boxes = slices.Grow(sc.boxes[:0], nSlices)[:nSlices]
	if sc.epoch++; sc.epoch == 1<<31 || len(sc.stamp) < slots {
		sc.stamp = make([]uint32, slots)
		sc.epoch = 1
	}
	return 2 * sc.epoch
}

// ctxEvery is the sweep's cancellation checkpoint: one context check per
// this many index nominations.
const ctxEvery = 256

// testsPerTask is how many nominated objects one zone-test task of the
// pool tests; the pool checks the context before each task.
const testsPerTask = 64

// sweep is the sweep phase: the objects, in OID order, whose exact
// minimum crisp distance from the query over some slice i is at most
// bounds[i] + 4r + Margin. One index walk over the window nominates (see
// the package comment for why nothing is missed), and each nominated
// object is tested once, against its live plan. The walk only collects
// the nominations; their tests run on the session's pool, testsPerTask to
// a task, each marking its own objects' stamps. A +Inf bound cannot
// exclude anything from its slice, so it keeps every candidate outright.
func (s *Sweep) sweep(ctx context.Context, bounds []float64) ([]*trajectory.Trajectory, error) {
	if len(bounds) != len(s.cuts)-1 {
		return nil, fmt.Errorf("prune: got %d slice bounds for %d slices", len(bounds), len(s.cuts)-1)
	}
	if err := pool.CtxErr(ctx); err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*sweepScratch)
	defer scratchPool.Put(sc)
	tested := sc.begin(len(bounds), len(s.trs))
	union, bounded := s.limits(sc, bounds)
	if !bounded {
		return s.all(), nil
	}
	var (
		seen int
		cerr error
	)
	named := sc.named[:0]
	s.idx.Visit(union, s.tb, s.te, func(id int64) bool {
		if seen++; seen%ctxEvery == 0 {
			if cerr = pool.CtxErr(ctx); cerr != nil {
				return false
			}
		}
		j, ok := s.slot(id)
		if !ok || sc.stamp[j] >= tested || id == s.q.OID {
			return true // retired or filtered out, already nominated, or the query itself
		}
		sc.stamp[j] = tested
		named = append(named, int32(j))
		return true
	})
	sc.named = named
	if cerr != nil {
		return nil, cerr
	}
	tasks := (len(named) + testsPerTask - 1) / testsPerTask
	err := s.pool.ForEachIndex(ctx, tasks, func(t int) error {
		for _, j := range named[t*testsPerTask : min((t+1)*testsPerTask, len(named))] {
			if s.entersZone(s.trs[j], sc) {
				sc.stamp[j]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	kept := 0
	for _, j := range named {
		if sc.stamp[j] == tested+1 {
			kept++
		}
	}
	out := make([]*trajectory.Trajectory, 0, kept)
	for j, st := range sc.stamp[:len(s.trs)] {
		if st == tested+1 {
			out = append(out, s.trs[j])
		}
	}
	return out, nil
}

// limits fills the scratch's per-slice limits and corridor boxes for a
// sweep against bounds and returns the boxes' union; bounded is false when
// some slice has no finite bound, and the test then excludes nothing.
func (s *Sweep) limits(sc *sweepScratch, bounds []float64) (union geom.AABB, bounded bool) {
	width := 4*s.r + Margin
	union = geom.EmptyAABB()
	for i, u := range bounds {
		if math.IsInf(u, 1) {
			return union, false
		}
		sc.lim[i] = u + width
		sc.boxes[i] = geom.AABBOf(s.qpos[i], s.qpos[i+1]).Expand(sc.lim[i] + s.r)
		union = union.Union(sc.boxes[i])
	}
	return union, true
}

// entersZone reports whether tr's minimum crisp distance from the query
// over some slice i is at most sc.lim[i], in one pass over tr's motion in
// time order: each piece — the clamped head before the plan, every plan
// segment, the clamped tail — meets the slices it overlaps, where both
// motions are linear, so the minimum is the distance from the origin of a
// segment in the difference frame. A piece whose box misses a slice's
// grown corridor box is further than the limit throughout it.
func (s *Sweep) entersZone(tr *trajectory.Trajectory, sc *sweepScratch) bool {
	verts, cuts := tr.Verts, s.cuts
	last := len(verts) - 1
	// j is the piece: -1 the head, 0..last-1 the segments, last the tail.
	j := trajectory.IndexAfter(verts, s.tb) - 1
	for i := 0; j <= last; j++ {
		a, b := verts[max(j, 0)], verts[min(j+1, last)] // equal on the clamped pieces
		p0, p1 := math.Inf(-1), math.Inf(1)
		if j >= 0 {
			p0 = a.T
		}
		if j < last {
			p1 = b.T
		}
		if p0 >= s.te {
			break
		}
		box := geom.AABBOf(a.Point(), b.Point())
		for ; i < len(sc.lim) && cuts[i] < p1; i++ {
			lo, hi := math.Max(cuts[i], p0), math.Min(cuts[i+1], p1)
			if hi > lo && box.Intersects(sc.boxes[i]) {
				qlo, qhi := s.qpos[i], s.qpos[i+1]
				if lo != cuts[i] {
					qlo = s.q.At(lo)
				}
				if hi != cuts[i+1] {
					qhi = s.q.At(hi)
				}
				if math.Sqrt(relDistSq(lerpAt(a, b, lo).Sub(qlo), lerpAt(a, b, hi).Sub(qhi))) <= sc.lim[i] {
					return true
				}
			}
			if cuts[i+1] > p1 {
				break // the next piece starts inside this slice
			}
		}
	}
	return false
}

// lerpAt is Trajectory.At on the one segment a→b: the vertices themselves
// at and beyond its ends (so a == b is a clamped piece), the same
// interpolation in between — bit for bit what At returns there.
func lerpAt(a, b trajectory.Vertex, t float64) geom.Point {
	switch {
	case t <= a.T:
		return a.Point()
	case t >= b.T:
		return b.Point()
	}
	return a.Point().Lerp(b.Point(), (t-a.T)/(b.T-a.T))
}

// relDistSq is the squared distance from the origin of the segment p0→p1:
// the squared minimum distance of two points in linear motion whose offset
// goes from p0 to p1.
func relDistSq(p0, p1 geom.Vec) float64 {
	var origin geom.Point
	seg := geom.Segment{A: geom.Point{X: p0.X, Y: p0.Y}, B: geom.Point{X: p1.X, Y: p1.Y}}
	return seg.At(seg.ClosestParam(origin)).DistSq(origin)
}

// vertsWithin returns a's vertices with timestamps strictly inside
// (t0, t1) — a sub-slice, nothing is copied.
func vertsWithin(a *trajectory.Trajectory, t0, t1 float64) []trajectory.Vertex {
	lo := trajectory.IndexAfter(a.Verts, t0)
	hi := lo
	for hi < len(a.Verts) && a.Verts[hi].T < t1 {
		hi++
	}
	return a.Verts[lo:hi]
}

// maxDistOverSlice returns the exact maximum over [t0, t1] of the distance
// between the expected positions of a and b, given b's positions b0 and b1
// at t0 and t1. Between vertex times the squared distance is a convex
// parabola in t, so the maximum over every elementary interval sits at one
// of its endpoints.
func maxDistOverSlice(a, b *trajectory.Trajectory, t0, t1 float64, b0, b1 geom.Point) float64 {
	best := math.Max(a.At(t0).DistSq(b0), a.At(t1).DistSq(b1))
	for _, v := range vertsWithin(a, t0, t1) {
		best = math.Max(best, v.Point().DistSq(b.At(v.T)))
	}
	for _, v := range vertsWithin(b, t0, t1) {
		best = math.Max(best, a.At(v.T).DistSq(v.Point()))
	}
	return math.Sqrt(best)
}

// minDistOverSlice returns the exact minimum over [t0, t1] of the distance
// between the expected positions of a and b. Per elementary interval —
// between consecutive vertex times of either, merged on the fly — the
// relative motion traces a line segment (in the difference frame), so the
// minimum is the segment's distance from the origin.
func minDistOverSlice(a, b *trajectory.Trajectory, t0, t1 float64) float64 {
	va, vb := vertsWithin(a, t0, t1), vertsWithin(b, t0, t1)
	best := math.Inf(1)
	s0, p0 := t0, a.At(t0).Sub(b.At(t0))
	for s0 < t1 {
		s1 := t1
		if len(va) > 0 && va[0].T < s1 {
			s1 = va[0].T
		}
		if len(vb) > 0 && vb[0].T < s1 {
			s1 = vb[0].T
		}
		if len(va) > 0 && va[0].T == s1 {
			va = va[1:]
		}
		if len(vb) > 0 && vb[0].T == s1 {
			vb = vb[1:]
		}
		p1 := a.At(s1).Sub(b.At(s1))
		best = math.Min(best, relDistSq(p0, p1))
		s0, p0 = s1, p1
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
