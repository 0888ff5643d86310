// Package envelope implements Section 3.2 of the paper: the hyperbolic
// distance functions of difference trajectories, their pairwise lower
// envelope (Env2), the sweep merge of two envelopes (Merge_LE,
// Algorithm 2), the divide-and-conquer construction of the overall lower
// envelope (LE_Alg, Algorithm 1), the O(N² log N) naive baseline used by
// the paper's Figure 11, the 4r pruning zone, and the interval predicates
// that power the query variants of Section 4.
//
// A difference trajectory TR_iq = Tr_i − Tr_q moves linearly per elementary
// time interval, so its distance from the origin is a hyperbola
// d(t) = sqrt(A·t² + B·t + C) with A ≥ 0 on each piece. All computations
// are carried out piecewise, which extends the paper's single-segment
// derivations to trajectories with m segments (its closing remark in
// Section 3.2).
package envelope

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/numeric"
	"repro/internal/trajectory"
)

// TimeEps is the absolute time tolerance used to discard degenerate
// intervals and deduplicate critical time points. Horizons in this module
// are minutes (tens of units), so 1e-9 is ~1e-10 relative.
const TimeEps = 1e-9

// Package errors.
var (
	ErrEmptyWindow = errors.New("envelope: empty time window")
	ErrNoFunctions = errors.New("envelope: no distance functions")
	ErrBadWindow   = errors.New("envelope: window outside trajectory spans")
)

// Piece is one hyperbolic piece of a distance function: on [T0, T1] the
// distance from the origin is sqrt(A·τ² + B·τ + C) with τ = t − Tref.
// Keeping a local time origin keeps the quadratic well-conditioned (the
// paper expands in absolute time; for t ~ thousands that loses precision).
type Piece struct {
	T0, T1  float64
	Tref    float64
	A, B, C float64
}

// ValueSq returns the squared distance at absolute time t.
func (p Piece) ValueSq(t float64) float64 {
	tau := t - p.Tref
	v := p.A*tau*tau + p.B*tau + p.C
	if v < 0 {
		return 0 // guard tiny negative from cancellation
	}
	return v
}

// Value returns the distance at absolute time t.
func (p Piece) Value(t float64) float64 { return math.Sqrt(p.ValueSq(t)) }

// DistanceFunc is the distance of a difference trajectory TR_iq from the
// origin as a function of time over a query window: a contiguous sequence
// of hyperbolic pieces.
type DistanceFunc struct {
	ID     int64
	Pieces []Piece
}

// NewDistanceFunc builds the distance function of the difference trajectory
// a − b over the window [tb, te]. Both trajectories must cover the window.
// The window is split at every vertex time of either trajectory, and on
// each elementary interval the relative motion is linear, yielding one
// hyperbolic piece (Section 3.2's construction).
//
// The cut times are the two trajectories' in-window vertex times merged by
// two cursors between tb and te — their sorted order — and a cut within
// TimeEps of the one before it starts no piece. A first pass counts the
// pieces, so the function and its pieces are the only two allocations.
func NewDistanceFunc(id int64, a, b *trajectory.Trajectory, tb, te float64) (*DistanceFunc, error) {
	if err := CheckWindow(a, b, tb, te); err != nil {
		return nil, err
	}
	n := 0
	for c := newCutMerge(a, b, tb, te); c.next(); {
		if !(c.t1-c.t0 <= TimeEps) { // the fill's own test
			n++
		}
	}
	if n == 0 {
		return nil, ErrEmptyWindow
	}
	f := &DistanceFunc{ID: id, Pieces: make([]Piece, 0, n)}
	for c := newCutMerge(a, b, tb, te); c.next(); {
		t0, t1 := c.t0, c.t1
		if t1-t0 <= TimeEps {
			continue
		}
		pa := a.At(t0).Sub(b.At(t0)) // relative position at t0
		va := a.VelocityAt(t0 + (t1-t0)/2).Sub(b.VelocityAt(t0 + (t1-t0)/2))
		f.Pieces = append(f.Pieces, Piece{
			T0: t0, T1: t1, Tref: t0,
			A: va.LenSq(),
			B: 2 * (pa.X*va.X + pa.Y*va.Y),
			C: pa.LenSq(),
		})
	}
	return f, nil
}

// cutMerge walks the consecutive pairs (t0, t1) of a distance function's
// cut times over [tb, te]: tb, the vertex times of a and of b strictly
// inside the window in ascending order, te.
type cutMerge struct {
	a, b   []trajectory.Vertex
	t0, t1 float64
	te     float64
	done   bool
}

// newCutMerge starts before the first pair.
func newCutMerge(a, b *trajectory.Trajectory, tb, te float64) cutMerge {
	return cutMerge{a: innerVerts(a, tb, te), b: innerVerts(b, tb, te), t1: tb, te: te}
}

// innerVerts returns tr's vertices with times strictly inside (tb, te).
func innerVerts(tr *trajectory.Trajectory, tb, te float64) []trajectory.Vertex {
	vs := tr.Verts
	lo := sort.Search(len(vs), func(k int) bool { return vs[k].T > tb })
	hi := lo + sort.Search(len(vs)-lo, func(k int) bool { return vs[lo+k].T >= te })
	return vs[lo:hi]
}

// next moves to the next pair, false past the one that ends at te.
func (c *cutMerge) next() bool {
	if c.done {
		return false
	}
	c.t0 = c.t1
	switch {
	case len(c.a) > 0 && (len(c.b) == 0 || c.a[0].T <= c.b[0].T):
		c.t1, c.a = c.a[0].T, c.a[1:]
	case len(c.b) > 0:
		c.t1, c.b = c.b[0].T, c.b[1:]
	default:
		c.t1, c.done = c.te, true
	}
	return true
}

// CheckWindow validates the window preconditions of NewDistanceFunc for the
// pair (a, b): a window of positive measure covered by both trajectories.
// It returns exactly the error NewDistanceFunc would, which lets candidate
// pre-passes that skip function construction for pruned objects still fail
// identically to a full BuildDistanceFuncs run.
func CheckWindow(a, b *trajectory.Trajectory, tb, te float64) error {
	if te-tb <= TimeEps {
		return ErrEmptyWindow
	}
	ab, ae := a.TimeSpan()
	bb, be := b.TimeSpan()
	if tb < ab-TimeEps || te > ae+TimeEps || tb < bb-TimeEps || te > be+TimeEps {
		return fmt.Errorf("%w: [%g, %g] vs a=[%g, %g] b=[%g, %g]", ErrBadWindow, tb, te, ab, ae, bb, be)
	}
	return nil
}

// BuildDistanceFuncs constructs the difference distance functions of every
// trajectory in trs (except the query trajectory q itself, matched by OID)
// relative to q, over [tb, te].
func BuildDistanceFuncs(trs []*trajectory.Trajectory, q *trajectory.Trajectory, tb, te float64) ([]*DistanceFunc, error) {
	out := make([]*DistanceFunc, 0, len(trs))
	for _, tr := range trs {
		if tr.OID == q.OID {
			continue
		}
		f, err := NewDistanceFunc(tr.OID, tr, q, tb, te)
		if err != nil {
			return nil, fmt.Errorf("oid %d: %w", tr.OID, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// pieceAt returns the piece active at time t (clamped to the span).
func (f *DistanceFunc) pieceAt(t float64) Piece { return f.Pieces[pieceIndex(f.Pieces, t)] }

// pieceIndex returns the index of the piece active at time t: the first
// one ending at or after t, clamped to the span.
func pieceIndex(ps []Piece, t float64) int {
	n := len(ps)
	if t <= ps[0].T0 {
		return 0
	}
	if t >= ps[n-1].T1 {
		return n - 1
	}
	return min(sort.Search(n, func(k int) bool { return ps[k].T1 >= t }), n-1)
}

// Value returns the distance at time t.
func (f *DistanceFunc) Value(t float64) float64 { return f.pieceAt(t).Value(t) }

// ValueSq returns the squared distance at time t.
func (f *DistanceFunc) ValueSq(t float64) float64 { return f.pieceAt(t).ValueSq(t) }

// Breakpoints returns the piece boundary times, including the window ends.
func (f *DistanceFunc) Breakpoints() []float64 {
	out := make([]float64, 0, len(f.Pieces)+1)
	out = append(out, f.Pieces[0].T0)
	for _, p := range f.Pieces {
		out = append(out, p.T1)
	}
	return out
}

// Intersections appends to dst the times in (lo, hi) at which f and g
// cross, sorted ascending and deduplicated within TimeEps, and returns the
// extended slice (dst's own elements are left as they are). Tangency points
// (double roots) are reported once. Identical pieces (the same quadratic)
// produce no crossing — equal functions never generate critical points,
// matching the ⊎-concatenation semantics. A dst with room for the crossings
// costs no allocation.
//
// Two single-piece hyperbolae cross at most twice (Davenport-Schinzel
// s = 2); piecewise functions cross at most twice per overlapping piece
// pair.
func Intersections(dst []float64, f, g *DistanceFunc, lo, hi float64) []float64 {
	n0 := len(dst)
	for i := range f.Pieces {
		pf := &f.Pieces[i]
		if pf.T1 <= lo || pf.T0 >= hi {
			continue
		}
		for j := range g.Pieces {
			pg := &g.Pieces[j]
			l := math.Max(math.Max(pf.T0, pg.T0), lo)
			h := math.Min(math.Min(pf.T1, pg.T1), hi)
			if h-l <= TimeEps {
				continue
			}
			// d_f²(t) = d_g²(t): quadratic in absolute t. Expand both local
			// parameterizations.
			a := pf.A - pg.A
			b := (pf.B - 2*pf.A*pf.Tref) - (pg.B - 2*pg.A*pg.Tref)
			c := (pf.A*pf.Tref*pf.Tref - pf.B*pf.Tref + pf.C) -
				(pg.A*pg.Tref*pg.Tref - pg.B*pg.Tref + pg.C)
			roots, n := numeric.QuadRoots(a, b, c)
			for _, r := range roots[:n] {
				if r > l+TimeEps && r < h-TimeEps {
					dst = append(dst, r)
				}
			}
		}
	}
	slices.Sort(dst[n0:])
	return dst[:n0+len(dedupTimes(dst[n0:]))]
}

func dedupTimes(ts []float64) []float64 {
	if len(ts) < 2 {
		return ts
	}
	out := ts[:1]
	for _, t := range ts[1:] {
		if t-out[len(out)-1] > TimeEps {
			out = append(out, t)
		}
	}
	return out
}
