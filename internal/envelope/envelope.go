package envelope

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/numeric"
	"repro/internal/pool"
)

// Interval is one maximal piece of an envelope: on [T0, T1] the function
// with the given ID defines the envelope.
type Interval struct {
	ID     int64
	T0, T1 float64
}

// Envelope is a ranked lower envelope: a contiguous list of intervals over
// [T0, T1] plus the distance functions needed to evaluate it. The interval
// boundaries interior to the window are the paper's critical time points.
type Envelope struct {
	Intervals []Interval
	T0, T1    float64
	fns       map[int64]*DistanceFunc
	compact   bool // fns holds the defining functions only (see Compact)
}

// newEnvelope wraps an interval list with its function table.
func newEnvelope(ivs []Interval, fns map[int64]*DistanceFunc, t0, t1 float64) *Envelope {
	return &Envelope{Intervals: ivs, fns: fns, T0: t0, T1: t1}
}

// Size returns the combinatorial complexity of the envelope (number of
// maximal intervals). For N single-segment hyperbolae it is bounded by the
// Davenport-Schinzel bound λ₂(N) = 2N − 1.
func (e *Envelope) Size() int { return len(e.Intervals) }

// At returns the envelope's interval index active at time t.
func (e *Envelope) at(t float64) int {
	n := len(e.Intervals)
	i := sort.Search(n, func(k int) bool { return e.Intervals[k].T1 >= t })
	if i == n {
		i = n - 1
	}
	return i
}

// ValueAt evaluates the envelope at time t (clamped to the window).
func (e *Envelope) ValueAt(t float64) float64 {
	iv := e.Intervals[e.at(t)]
	return e.fns[iv.ID].Value(t)
}

// IDAt returns the ID of the function defining the envelope at time t.
func (e *Envelope) IDAt(t float64) int64 { return e.Intervals[e.at(t)].ID }

// Func returns the distance function with the given ID, or nil — on a
// compacted envelope (see Compact), nil for any function that defines no
// interval.
func (e *Envelope) Func(id int64) *DistanceFunc { return e.fns[id] }

// concatMerge appends interval iv to dst with the paper's ⊎ semantics:
// when the last interval of dst is defined by the same function, the two
// intervals fuse and the shared critical point is absorbed (Example 5).
func concatMerge(dst []Interval, iv Interval) []Interval {
	if iv.T1-iv.T0 <= TimeEps {
		return dst
	}
	if n := len(dst); n > 0 && dst[n-1].ID == iv.ID && math.Abs(dst[n-1].T1-iv.T0) <= TimeEps {
		dst[n-1].T1 = iv.T1
		return dst
	}
	return append(dst, iv)
}

// Env2 appends the lower envelope of two distance functions over [lo, hi]
// to dst with ⊎ (concatMerge: a first interval defined by dst's last
// function fuses with it) and returns the extended slice — the paper's Env2
// primitive. The functions' crossings inside the window are the new
// critical time points, and between consecutive critical points the smaller
// function (sampled at the midpoint) defines the envelope; a critical point
// within TimeEps of the one before it starts no interval. For single-piece
// inputs this is O(1), and into a dst with room it allocates nothing: up to
// eight crossings are held on the stack.
func Env2(dst []Interval, f, g *DistanceFunc, lo, hi float64) []Interval {
	if hi-lo <= TimeEps {
		return dst
	}
	var buf [8]float64
	t0 := lo
	for _, t1 := range append(Intersections(buf[:0], f, g, lo, hi), hi) {
		if t1-t0 > TimeEps {
			mid := 0.5 * (t0 + t1)
			id := f.ID
			if g.ValueSq(mid) < f.ValueSq(mid) {
				id = g.ID
			}
			dst = concatMerge(dst, Interval{ID: id, T0: t0, T1: t1})
		}
		t0 = t1
	}
	return dst
}

// MergeLE merges two lower envelopes over the same window into their
// combined lower envelope — the paper's Algorithm 2 — and appends it to dst
// with ⊎, returning the extended slice. The sweep walks the union of the
// two envelopes' critical time points, maintaining the current lower and
// upper sweep bounds, and invokes Env2 on the pair of functions active on
// each elementary interval, straight into the output. An empty input
// appends the other, interval by interval with ⊎. A dst without room for
// len(a) + len(b) more intervals — the most a merge that adds no crossing
// yields — is grown once to hold them, so such a merge into nil allocates
// its output and nothing else.
func MergeLE(dst, a, b []Interval, fns map[int64]*DistanceFunc) []Interval {
	out := dst
	if cap(out)-len(out) < len(a)+len(b) {
		out = append(make([]Interval, 0, len(dst)+len(a)+len(b)), dst...)
	}
	if len(a) == 0 || len(b) == 0 {
		for _, iv := range a {
			out = concatMerge(out, iv)
		}
		for _, iv := range b {
			out = concatMerge(out, iv)
		}
		return out
	}
	k, p := 0, 0
	for k < len(a) && p < len(b) {
		ia, ib := a[k], b[p]
		tcl := math.Max(ia.T0, ib.T0) // current lower bound
		tcu := math.Min(ia.T1, ib.T1) // current upper bound
		if tcu-tcl > TimeEps {
			out = Env2(out, fns[ia.ID], fns[ib.ID], tcl, tcu)
		}
		switch {
		case ia.T1 < ib.T1-TimeEps:
			k++
		case ib.T1 < ia.T1-TimeEps:
			p++
		default:
			k++
			p++
		}
	}
	return out
}

// LowerEnvelope constructs the lower envelope of the distance functions
// over [tb, te] by divide and conquer (the paper's Algorithm 1, LE_Alg):
// split the set, recurse, and MergeLE the halves — O(N log N) for
// single-segment trajectories by the Davenport-Schinzel bound.
func LowerEnvelope(fns []*DistanceFunc, tb, te float64) (*Envelope, error) {
	return LowerEnvelopeOn(nil, fns, tb, te)
}

// LowerEnvelopeOn is LowerEnvelope with the recursion's two top halves
// built side by side on pl (nil: one after the other on the caller). The
// recursion tree is LE_Alg's own, so the envelope is the same bit for bit.
// The halves and every level below them live in pooled scratch (see
// leScratch); the envelope's interval list is allocated once, at its
// length.
func LowerEnvelopeOn(pl *pool.Pool, fns []*DistanceFunc, tb, te float64) (*Envelope, error) {
	if len(fns) == 0 {
		return nil, ErrNoFunctions
	}
	if te-tb <= TimeEps {
		return nil, ErrEmptyWindow
	}
	table := make(map[int64]*DistanceFunc, len(fns))
	for _, f := range fns {
		table[f.ID] = f
	}
	if len(fns) == 1 {
		return newEnvelope([]Interval{{ID: fns[0].ID, T0: tb, T1: te}}, table, tb, te), nil
	}
	c := len(fns) / 2
	halves := [2][]*DistanceFunc{fns[:c], fns[c:]}
	scs := [2]*leScratch{getScratch(), getScratch()}
	// LE_Alg takes no deadline, so the loop runs on a context that never
	// ends and makes no check a caller could count; neither task fails, so
	// neither does the loop.
	_ = pl.ForEachIndex(context.Background(), 2, func(i int) error {
		scs[i].le(halves[i], tb, te, table)
		return nil
	})
	ivs := scs[0].merged(scs[1].ivs, table)
	scs[0].put()
	scs[1].put()
	return newEnvelope(ivs, table, tb, te), nil
}

// leScratch is one LE_Alg recursion's working memory, recycled through
// lePool. The recursion stacks its envelopes in ivs: a call leaves its
// result on top, a merge appends its output beside the two halves it reads
// and moves it down over them, so a build allocates nothing once the stack
// has grown to the depth it needs. fns holds a level-k interval's remaining
// functions and excl its excluded IDs (KLevelEnvelopes).
type leScratch struct {
	ivs  []Interval
	fns  []*DistanceFunc
	excl []int64
}

var lePool = sync.Pool{New: func() any { return new(leScratch) }}

func getScratch() *leScratch {
	s := lePool.Get().(*leScratch)
	s.ivs = s.ivs[:0]
	return s
}

// put returns s to the pool, holding no distance function alive.
func (s *leScratch) put() {
	clear(s.fns)
	s.fns = s.fns[:0]
	lePool.Put(s)
}

// le pushes the lower envelope of fns over [tb, te] onto s.ivs (LE_Alg).
func (s *leScratch) le(fns []*DistanceFunc, tb, te float64, table map[int64]*DistanceFunc) {
	if len(fns) == 1 {
		s.ivs = append(s.ivs, Interval{ID: fns[0].ID, T0: tb, T1: te})
		return
	}
	base := len(s.ivs)
	c := len(fns) / 2
	s.le(fns[:c], tb, te, table)
	mid := len(s.ivs)
	s.le(fns[c:], tb, te, table)
	end := len(s.ivs)
	// Room for a merge with a crossing on every second elementary interval
	// beside its inputs; a merge with more outgrows it into a fresh array.
	s.ivs = slices.Grow(s.ivs, 2*(end-base))
	out := MergeLE(s.ivs[end:end], s.ivs[base:mid], s.ivs[mid:end], table)
	s.ivs = append(s.ivs[:base], out...)
}

// merged returns the envelope on s.ivs merged with b, allocated at its
// length: the merge runs on the stack above s.ivs.
func (s *leScratch) merged(b []Interval, table map[int64]*DistanceFunc) []Interval {
	end := len(s.ivs)
	s.ivs = slices.Grow(s.ivs, 2*(end+len(b)))
	return keep(MergeLE(s.ivs[end:end], s.ivs[:end], b, table))
}

// keep copies an interval list out of scratch, at its length.
func keep(ivs []Interval) []Interval {
	return append(make([]Interval, 0, len(ivs)), ivs...)
}

// NaiveLowerEnvelope is the baseline of the paper's Figure 11: find the
// intersections of all O(N²) pairs of distance functions, sort them in
// time, and sweep, switching the envelope function whenever the current
// envelope curve is crossed from below. O(N² log N).
func NaiveLowerEnvelope(fns []*DistanceFunc, tb, te float64) (*Envelope, error) {
	if len(fns) == 0 {
		return nil, ErrNoFunctions
	}
	if te-tb <= TimeEps {
		return nil, ErrEmptyWindow
	}
	table := make(map[int64]*DistanceFunc, len(fns))
	for _, f := range fns {
		table[f.ID] = f
	}
	type event struct {
		t    float64
		i, j int32
	}
	var events []event
	var ts []float64
	for i := 0; i < len(fns); i++ {
		for j := i + 1; j < len(fns); j++ {
			ts = Intersections(ts[:0], fns[i], fns[j], tb, te)
			for _, t := range ts {
				events = append(events, event{t: t, i: int32(i), j: int32(j)})
			}
		}
	}
	slices.SortFunc(events, func(a, b event) int { return cmp.Compare(a.t, b.t) })

	// Initial envelope function at tb.
	cur := 0
	probe := tb + math.Min((te-tb)*1e-7, TimeEps*10)
	best := fns[0].ValueSq(probe)
	for i := 1; i < len(fns); i++ {
		if v := fns[i].ValueSq(probe); v < best {
			best = v
			cur = i
		}
	}
	var ivs []Interval
	start := tb
	for _, ev := range events {
		if int(ev.i) != cur && int(ev.j) != cur {
			continue // the envelope only changes at crossings involving it
		}
		other := int(ev.i)
		if other == cur {
			other = int(ev.j)
		}
		// Just after the crossing, does the other curve go below?
		after := math.Min(te, ev.t+math.Max(TimeEps*10, (te-tb)*1e-9))
		if fns[other].ValueSq(after) < fns[cur].ValueSq(after) {
			if ev.t-start > TimeEps {
				ivs = concatMerge(ivs, Interval{ID: fns[cur].ID, T0: start, T1: ev.t})
				start = ev.t
			}
			cur = other
		}
	}
	ivs = concatMerge(ivs, Interval{ID: fns[cur].ID, T0: start, T1: te})
	return newEnvelope(ivs, table, tb, te), nil
}

// MinGap returns the minimum over the window of f(t) − e(t): how close f
// comes to the envelope. Negative values mean f dips below e somewhere.
// Each elementary interval (union of f's and e's breakpoints) holds a
// smooth difference of two hyperbolae; the minimum is located by sampling
// followed by golden-section refinement (tolerance TimeEps).
func MinGap(f *DistanceFunc, e *Envelope) float64 {
	cuts := mergeCuts(f.Breakpoints(), e.breakTimes(), e.T0, e.T1)
	best := math.Inf(1)
	for i := 1; i < len(cuts); i++ {
		t0, t1 := cuts[i-1], cuts[i]
		if t1-t0 <= TimeEps {
			continue
		}
		iv := e.Intervals[e.at(0.5*(t0+t1))]
		g := e.fns[iv.ID]
		diff := func(t float64) float64 { return f.Value(t) - g.Value(t) }
		// Bracket by sampling, then refine.
		const samples = 8
		bt, bv := t0, diff(t0)
		for s := 1; s <= samples; s++ {
			t := t0 + (t1-t0)*float64(s)/samples
			if v := diff(t); v < bv {
				bv = v
				bt = t
			}
		}
		lo := math.Max(t0, bt-(t1-t0)/samples)
		hi := math.Min(t1, bt+(t1-t0)/samples)
		if _, v := numeric.MinimizeGolden(diff, lo, hi, TimeEps); v < bv {
			bv = v
		}
		if bv < best {
			best = bv
		}
	}
	return best
}

// breakTimes returns the envelope's interval boundaries.
func (e *Envelope) breakTimes() []float64 {
	out := make([]float64, 0, len(e.Intervals)+1)
	out = append(out, e.Intervals[0].T0)
	for _, iv := range e.Intervals {
		out = append(out, iv.T1)
	}
	return out
}

func mergeCuts(a, b []float64, lo, hi float64) []float64 {
	all := make([]float64, 0, len(a)+len(b)+2)
	all = append(all, lo, hi)
	for _, t := range a {
		if t > lo && t < hi {
			all = append(all, t)
		}
	}
	for _, t := range b {
		if t > lo && t < hi {
			all = append(all, t)
		}
	}
	sort.Float64s(all)
	return dedupTimes(all)
}

// Prune partitions the functions into those that intersect the pruning
// zone [envelope, envelope + width] somewhere in the window (kept) and
// those that never do (pruned). Per Section 3.2, with uncertainty radius r
// the width is 4r: an object whose distance function stays more than 4r
// above the lower envelope can never have non-zero probability of being
// the nearest neighbor.
func Prune(fns []*DistanceFunc, e *Envelope, width float64) (kept, pruned []*DistanceFunc) {
	for _, f := range fns {
		if MinGap(f, e) <= width {
			kept = append(kept, f)
		} else {
			pruned = append(pruned, f)
		}
	}
	return kept, pruned
}

// TimeInterval is a closed interval of time.
type TimeInterval struct {
	T0, T1 float64
}

// Length returns the interval's duration.
func (iv TimeInterval) Length() float64 { return iv.T1 - iv.T0 }

// TotalLength sums the durations of a set of disjoint intervals.
func TotalLength(ivs []TimeInterval) float64 {
	var s float64
	for _, iv := range ivs {
		s += iv.Length()
	}
	return s
}

// scanScratch holds the reusable buffers of one BelowIntervals sweep. The
// whole-MOD query variants run this scan once per candidate (fanned across
// goroutines by the batch engine), so the buffers are recycled through a
// pool instead of reallocated per call.
type scanScratch struct {
	cuts  []float64
	roots []float64
}

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

// pieceCursor walks a distance function's pieces from where its last call
// left it, so neither the sweep nor Brent's nearby probes search.
type pieceCursor struct {
	ps []Piece
	i  int
}

// advance returns the piece the sweep evaluates at t. It only moves
// forward: an interval's last sample may round past its end, and the
// next interval's first sample reads the piece that sample moved to.
func (c *pieceCursor) advance(t float64) *Piece {
	for c.i+1 < len(c.ps) && c.ps[c.i].T1 < t {
		c.i++
	}
	return &c.ps[c.i]
}

// seek returns the piece pieceIndex selects at t, wherever the cursor stands.
func (c *pieceCursor) seek(t float64) *Piece {
	for c.i > 0 && c.ps[c.i-1].T1 >= t {
		c.i--
	}
	return c.advance(t)
}

// envCursor is the envelope counterpart: an interval — forward only, or
// the one at selects when back is set — and in it the defining function's
// piece pieceIndex selects, looked up once per interval change.
type envCursor struct {
	e *Envelope
	i int
	g pieceCursor
}

func newEnvCursor(e *Envelope) envCursor {
	return envCursor{e: e, g: pieceCursor{ps: e.fns[e.Intervals[0].ID].Pieces}}
}

func (c *envCursor) at(t float64, back bool) *Piece {
	ivs, i := c.e.Intervals, c.i
	for back && i > 0 && ivs[i-1].T1 >= t {
		i--
	}
	for i+1 < len(ivs) && ivs[i].T1 < t {
		i++
	}
	if i != c.i {
		ps := c.e.fns[ivs[i].ID].Pieces
		c.i, c.g = i, pieceCursor{ps: ps, i: pieceIndex(ps, t)}
	}
	return c.g.seek(t)
}

// signedGap returns a value with the sign of f(t) − e(t) − delta computed
// from the squared distances fsq = f(t)², esq = e(t)², spending at most one
// square root (and none at all on the fast paths) instead of the two that
// evaluating both distances directly would cost.
func signedGap(fsq, esq, delta float64) float64 {
	if delta == 0 {
		return fsq - esq
	}
	if delta > 0 && fsq-esq < delta*delta {
		// f² < e² + δ² ≤ (e+δ)², so f − e − δ < 0 strictly.
		return fsq - esq - delta*delta
	}
	rhs := math.Sqrt(esq) + delta
	if rhs < 0 {
		// f ≥ 0 > e + δ: strictly above.
		return fsq + rhs*rhs
	}
	// sign(f² − (e+δ)²) = sign(f − e − δ) since f + e + δ ≥ 0.
	return fsq - rhs*rhs
}

// appendCutTimes gathers the window ends plus the interior breakpoints of f
// and e into dst, sorted and deduplicated, without the intermediate slices
// of Breakpoints/breakTimes.
func appendCutTimes(dst []float64, f *DistanceFunc, e *Envelope) []float64 {
	lo, hi := e.T0, e.T1
	dst = append(dst, lo, hi)
	if t := f.Pieces[0].T0; t > lo && t < hi {
		dst = append(dst, t)
	}
	for _, p := range f.Pieces {
		if p.T1 > lo && p.T1 < hi {
			dst = append(dst, p.T1)
		}
	}
	if t := e.Intervals[0].T0; t > lo && t < hi {
		dst = append(dst, t)
	}
	for _, iv := range e.Intervals {
		if iv.T1 > lo && iv.T1 < hi {
			dst = append(dst, iv.T1)
		}
	}
	sort.Float64s(dst)
	return dedupTimes(dst)
}

// BelowIntervals returns the maximal time intervals within the envelope's
// window during which f(t) <= e(t) + delta — the membership test of the
// pruning zone that underlies the UQ query variants (delta = 4r for
// Level 1 semantics, −4r for the guaranteed-NN test). Boundaries are
// refined with Brent's method to TimeEps.
//
// The output is a sampler's: per elementary interval (between breakpoints
// of f and e) the sign of f − e − delta at 17 evenly spaced times, Brent
// on each sign change, root-delimited intervals classified by midpoint.
// Most elementary intervals lie wholly inside or outside the zone, so the
// sweep takes the two end samples and, when they agree, skips the 15
// interior ones if certify proves that sign in between; otherwise the
// loop runs unchanged from the cursors of t0. Forward-only cursors end
// where the loop would have left them, so every later sample, Brent probe
// and midpoint returns the sampler's bits.
//
// This is the refine hot path, run once per surviving candidate: squared
// distances (one square root per sample at most), cursors instead of
// per-sample binary searches, and pooled buffers.
func BelowIntervals(f *DistanceFunc, e *Envelope, delta float64) []TimeInterval {
	sc := scanPool.Get().(*scanScratch)
	sc.cuts = appendCutTimes(sc.cuts[:0], f, e)
	cuts := sc.cuts
	gap := func(fc *pieceCursor, ec *envCursor, t float64) float64 {
		return signedGap(fc.advance(t).ValueSq(t), ec.at(t, false).ValueSq(t), delta)
	}
	var bf pieceCursor // Brent's cursors, copied from the bracketing sample's
	var be envCursor
	slow := func(t float64) float64 { return signedGap(bf.seek(t).ValueSq(t), be.at(t, true).ValueSq(t), delta) }
	const samples = 16
	roots := sc.roots[:0]
	fc, ec := pieceCursor{ps: f.Pieces}, newEnvCursor(e)
	for i := 1; i < len(cuts); i++ {
		t0, t1 := cuts[i-1], cuts[i]
		if t1-t0 <= TimeEps {
			continue
		}
		prevT := t0
		prevV := gap(&fc, &ec, t0)
		f0, e0 := fc, ec
		end := t0 + (t1-t0)*float64(samples)/samples
		endV := gap(&fc, &ec, end)
		if (prevV < 0) == (endV < 0) && certify(f.Pieces, f0.i, fc.i, &e0, &ec, t0, end, delta, prevV < 0) {
			continue
		}
		fc, ec = f0, e0
		for s := 1; s <= samples; s++ {
			t := t0 + (t1-t0)*float64(s)/samples
			v := gap(&fc, &ec, t)
			if (prevV < 0) != (v < 0) {
				bf, be = fc, ec
				if r, err := numeric.FindRoot(slow, prevT, t, TimeEps); err == nil {
					roots = append(roots, r)
				}
			}
			prevT, prevV = t, v
		}
	}
	sc.roots = roots
	// Classify the root-delimited intervals by their midpoint sign. Roots
	// were collected in ascending time order, so the cut list needs no sort.
	cl := append(sc.cuts[:0], e.T0)
	for _, r := range roots {
		if r > e.T0 && r < e.T1 {
			cl = append(cl, r)
		}
	}
	cl = append(cl, e.T1)
	cl = dedupTimes(cl)
	sc.cuts = cl
	var out []TimeInterval
	fc, ec = pieceCursor{ps: f.Pieces}, newEnvCursor(e)
	for i := 1; i < len(cl); i++ {
		t0, t1 := cl[i-1], cl[i]
		if t1-t0 <= TimeEps {
			continue
		}
		mid := 0.5 * (t0 + t1)
		if gap(&fc, &ec, mid) <= 0 {
			if n := len(out); n > 0 && math.Abs(out[n-1].T1-t0) <= TimeEps {
				out[n-1].T1 = t1
			} else {
				out = append(out, TimeInterval{T0: t0, T1: t1})
			}
		}
	}
	scanPool.Put(sc)
	return out
}

// certify reports whether f − g − delta is negative (neg) or positive at
// every time of [t0, t1] on every triple the cursors can select there —
// f's pieces fi..fj, the intervals from.i..to.i, the pieces of each
// interval's function g — each on the closed range where all three can.
func certify(fps []Piece, fi, fj int, from, to *envCursor, t0, t1, delta float64, neg bool) bool {
	ivs := from.e.Intervals
	for j := from.i; j <= to.i; j++ {
		lo, hi, ps, k0, k1 := t0, t1, to.g.ps, from.g.i, to.g.i
		if j < to.i {
			hi, ps = ivs[j].T1, from.e.fns[ivs[j].ID].Pieces
			k1 = pieceIndex(ps, hi)
		}
		if j > from.i {
			lo, k0 = ivs[j-1].T1, pieceIndex(ps, ivs[j-1].T1)
		}
		for k := k0; k <= k1; k++ {
			glo, ghi := lo, hi
			if k > k0 {
				glo = ps[k-1].T1
			}
			if k < k1 {
				ghi = ps[k].T1
			}
			for i := fi; i <= fj; i++ {
				plo, phi := glo, ghi
				if i > fi {
					plo = max(plo, fps[i-1].T1)
				}
				if i < fj {
					phi = min(phi, fps[i].T1)
				}
				if phi >= plo && !proves(&fps[i], &ps[k], plo, phi, delta, neg) {
					return false
				}
			}
		}
	}
	return true
}

// proves is one triple's certificate: whether f − g − delta is < 0 (neg)
// or > 0 at every time of [lo, hi] the sweep evaluates on pieces pf, pg.
// With D = f² − g² (pairQuad) and g within [eLo, eHi], f > g + δ wherever
// f² > (g + δ)² = g² + 2δg + δ², which min D > δ² + 2·max(δ·eLo, δ·eHi)
// guarantees (as does g + δ < 0); f < g + δ wherever g + δ ≥ 0 and
// max D < δ² + 2·min(δ·eLo, δ·eHi). One formula serves either sign of δ.
//
// The margin m covers rounding: ValueSq's τ and terms, g read at its own
// τ, pairQuad's coefficients and evaluation, signedGap's root, sum and
// square. Each is a few units of 2⁻⁵³ times terms the scale bounds (both
// pieces' terms at the largest |τ|, plus δ² ≥ 2δe − e²); together under
// 64 units, and m is 512. ValueSq's clamp at 0 is added exactly, as the
// most negative value g's (positive test) or f's quadratic reaches, and
// g's range is widened by m before its root. A non-finite value proves
// nothing.
func proves(pf, pg *Piece, lo, hi, delta float64, neg bool) bool {
	l, h := lo-pf.Tref, hi-pf.Tref
	dmin, dmax := pairQuad(pf, pg).bounds(l, h)
	gmin, gmax := quad{pg.A, pg.B, pg.C}.bounds(lo-pg.Tref, hi-pg.Tref)
	u := max(math.Abs(l), math.Abs(h))
	v := u + math.Abs(pf.Tref-pg.Tref)
	m := 0x1p-44 * (math.Abs(pf.A)*u*u + math.Abs(pf.B)*u + math.Abs(pf.C) +
		math.Abs(pg.A)*v*v + math.Abs(pg.B)*v + math.Abs(pg.C) + delta*delta)
	eLo, eHi := math.Sqrt(max(gmin-m, 0)), math.Sqrt(max(gmax, 0)+m)
	dd := delta * delta
	if !neg {
		return eHi+delta < 0 || dmin-max(-gmin, 0) > dd+2*max(delta*eLo, delta*eHi)+m
	}
	fmin, _ := quad{pf.A, pf.B, pf.C}.bounds(l, h)
	return eLo+delta >= 0 && dmax+max(-fmin, 0) < dd+2*min(delta*eLo, delta*eHi)-m
}
