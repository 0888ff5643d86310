// Package numeric provides the numerical-analysis substrate used to evaluate
// the paper's probability integrals (Eq. 3-6) and to locate critical time
// points: fixed-order Gauss-Legendre quadrature,
// closed-form quadratic solving, bracketed root refinement (Brent), scalar
// minimization (golden section), and linear-interpolation tables.
package numeric

import (
	"errors"
	"math"
	"sort"
)

// ErrNoBracket is returned by FindRoot when the supplied interval does not
// bracket a sign change.
var ErrNoBracket = errors.New("numeric: interval does not bracket a root")

// ErrBadTable is returned when constructing an interpolation table from
// invalid data.
var ErrBadTable = errors.New("numeric: interpolation table needs >= 2 strictly increasing x values")

// gauss-Legendre nodes and weights on [-1, 1], order 16. Computed once from
// standard tables; symmetric halves stored in full for simplicity.
var gl16Nodes = []float64{
	-0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.7554044083550030,
	-0.6178762444026438, -0.4580167776572274, -0.2816035507792589, -0.0950125098376374,
	0.0950125098376374, 0.2816035507792589, 0.4580167776572274, 0.6178762444026438,
	0.7554044083550030, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
}

var gl16Weights = []float64{
	0.0271524594117541, 0.0622535239386479, 0.0951585116824928, 0.1246289712555339,
	0.1495959888165767, 0.1691565193950025, 0.1826034150449236, 0.1894506104550685,
	0.1894506104550685, 0.1826034150449236, 0.1691565193950025, 0.1495959888165767,
	0.1246289712555339, 0.0951585116824928, 0.0622535239386479, 0.0271524594117541,
}

// GaussLegendre16 integrates f over [a, b] with a single 16-point
// Gauss-Legendre rule. Exact for polynomials up to degree 31; very fast for
// smooth integrands over short panels.
func GaussLegendre16(f func(float64) float64, a, b float64) float64 {
	c := 0.5 * (a + b)
	h := 0.5 * (b - a)
	var s float64
	for i, x := range gl16Nodes {
		s += gl16Weights[i] * f(c+h*x)
	}
	return s * h
}

// GaussLegendrePanels integrates f over [a, b] split into n equal panels of
// 16-point Gauss-Legendre each. Use for integrands with mild kinks (the
// within-distance CDFs are piecewise smooth).
func GaussLegendrePanels(f func(float64) float64, a, b float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	h := (b - a) / float64(n)
	var s float64
	for i := 0; i < n; i++ {
		s += GaussLegendre16(f, a+float64(i)*h, a+float64(i+1)*h)
	}
	return s
}

// QuadRoots returns the real roots of a·x² + b·x + c = 0 in increasing
// order. A linear equation (a == 0) yields at most one root; a degenerate
// identity (a == b == 0) yields none regardless of c. The computation uses
// the numerically stable citardauq form for the second root.
func QuadRoots(a, b, c float64) []float64 {
	const tiny = 1e-300
	if math.Abs(a) < tiny {
		if math.Abs(b) < tiny {
			return nil
		}
		return []float64{-c / b}
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		return nil
	}
	if disc == 0 {
		return []float64{-b / (2 * a)}
	}
	sq := math.Sqrt(disc)
	var q float64
	if b >= 0 {
		q = -0.5 * (b + sq)
	} else {
		q = -0.5 * (b - sq)
	}
	r1 := q / a
	var r2 float64
	if q != 0 {
		r2 = c / q
	} else {
		r2 = 0
	}
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	return []float64{r1, r2}
}

// FindRoot refines a root of f inside [a, b] to the given x tolerance using
// Brent's method. The interval must bracket a sign change, i.e.
// f(a)·f(b) <= 0; otherwise ErrNoBracket is returned.
func FindRoot(f func(float64) float64, a, b, xtol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, ErrNoBracket
	}
	// Brent's method, after Press et al.
	c, fc := a, fa
	d, e := b-a, b-a
	for iter := 0; iter < 200; iter++ {
		if fb*fc > 0 {
			c, fc = a, fa
			d = b - a
			e = d
		}
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*math.SmallestNonzeroFloat64*math.Abs(b) + 0.5*xtol
		xm := 0.5 * (c - b)
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			min1 := 3*xm*q - math.Abs(tol1*q)
			min2 := math.Abs(e * q)
			if 2*p < math.Min(min1, min2) {
				e = d
				d = p / q
			} else {
				d = xm
				e = d
			}
		} else {
			d = xm
			e = d
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			b += math.Copysign(tol1, xm)
		}
		fb = f(b)
	}
	return b, nil
}

// MinimizeGolden locates a local minimum of f on [a, b] by golden-section
// search with the given x tolerance. For the short, piecewise-smooth
// distance-difference curves in this module the interval minimum is what we
// need; callers subdivide at breakpoints first.
func MinimizeGolden(f func(float64) float64, a, b, xtol float64) (x, fx float64) {
	const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > xtol {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	x = 0.5 * (a + b)
	return x, f(x)
}

// Table is a piecewise-linear interpolation table y(x) over strictly
// increasing abscissae. It is the representation used for numerically
// convolved radial pdfs.
type Table struct {
	xs, ys []float64
}

// NewTable builds a table from parallel slices. The xs must be strictly
// increasing and len >= 2. The slices are copied.
func NewTable(xs, ys []float64) (*Table, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return nil, ErrBadTable
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, ErrBadTable
		}
	}
	t := &Table{xs: append([]float64(nil), xs...), ys: append([]float64(nil), ys...)}
	return t, nil
}

// At evaluates the table at x, clamping outside the domain to the end values.
func (t *Table) At(x float64) float64 {
	n := len(t.xs)
	if x <= t.xs[0] {
		return t.ys[0]
	}
	if x >= t.xs[n-1] {
		return t.ys[n-1]
	}
	i := sort.SearchFloat64s(t.xs, x)
	// xs[i-1] < x <= xs[i]
	x0, x1 := t.xs[i-1], t.xs[i]
	y0, y1 := t.ys[i-1], t.ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// Scale multiplies all ordinates by k in place and returns the table.
func (t *Table) Scale(k float64) *Table {
	for i := range t.ys {
		t.ys[i] *= k
	}
	return t
}

// Linspace returns n evenly spaced values from a to b inclusive (n >= 2).
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		return []float64{a}
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}
