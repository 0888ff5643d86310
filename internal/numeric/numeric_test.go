package numeric

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func near(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestGaussLegendre16(t *testing.T) {
	// Exact for polynomial of degree 31.
	f := func(x float64) float64 { return math.Pow(x, 9) }
	got := GaussLegendre16(f, 0, 2)
	want := math.Pow(2, 10) / 10
	if !near(got, want, 1e-9*want) {
		t.Errorf("x^9: got %.12g, want %.12g", got, want)
	}
	// Weights sum to 2 (integral of 1 over [-1,1]).
	var sum float64
	for _, w := range gl16Weights {
		sum += w
	}
	if !near(sum, 2, 1e-12) {
		t.Errorf("weights sum = %.15g", sum)
	}
	// Nodes are symmetric and sorted.
	for i := range gl16Nodes {
		if !near(gl16Nodes[i], -gl16Nodes[len(gl16Nodes)-1-i], 1e-15) {
			t.Errorf("node %d not symmetric", i)
		}
	}
	if !sort.Float64sAreSorted(gl16Nodes) {
		t.Error("nodes not sorted")
	}
}

func TestGaussLegendrePanels(t *testing.T) {
	got := GaussLegendrePanels(math.Sin, 0, math.Pi, 8)
	if !near(got, 2, 1e-12) {
		t.Errorf("sin panels = %.15g", got)
	}
	if got := GaussLegendrePanels(math.Sin, 0, math.Pi, 0); !near(got, 2, 1e-6) {
		t.Errorf("n<1 fallback = %.12g", got)
	}
}

func TestQuadRoots(t *testing.T) {
	cases := []struct {
		name    string
		a, b, c float64
		want    []float64
	}{
		{"two roots", 1, -3, 2, []float64{1, 2}},
		{"double root", 1, -2, 1, []float64{1}},
		{"no real roots", 1, 0, 1, nil},
		{"linear", 0, 2, -4, []float64{2}},
		{"degenerate", 0, 0, 5, nil},
		{"zero constant", 1, -5, 0, []float64{0, 5}},
		{"negative leading", -1, 0, 4, []float64{-2, 2}},
	}
	for _, c := range cases {
		got := QuadRoots(c.a, c.b, c.c)
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if !near(got[i], c.want[i], 1e-9) {
				t.Errorf("%s: root %d = %.12g, want %.12g", c.name, i, got[i], c.want[i])
			}
		}
	}
}

// Property: QuadRoots returns values that actually satisfy the equation, in
// increasing order.
func TestQuadRootsProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		c = math.Mod(c, 100)
		roots := QuadRoots(a, b, c)
		prev := math.Inf(-1)
		for _, r := range roots {
			if r < prev {
				return false
			}
			prev = r
			res := a*r*r + b*r + c
			scale := math.Abs(a*r*r) + math.Abs(b*r) + math.Abs(c) + 1
			if math.Abs(res) > 1e-6*scale {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuadRootsStability(t *testing.T) {
	// b >> a,c: the naive formula loses the small root; citardauq keeps it.
	roots := QuadRoots(1, -1e8, 1)
	if len(roots) != 2 {
		t.Fatalf("got %v", roots)
	}
	if !near(roots[0], 1e-8, 1e-14) {
		t.Errorf("small root = %.17g, want 1e-8", roots[0])
	}
}

func TestFindRoot(t *testing.T) {
	root, err := FindRoot(math.Cos, 0, 3, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !near(root, math.Pi/2, 1e-10) {
		t.Errorf("cos root = %.15g", root)
	}
	// Endpoint roots.
	if r, err := FindRoot(func(x float64) float64 { return x }, 0, 1, 1e-12); err != nil || r != 0 {
		t.Errorf("endpoint a: %v %v", r, err)
	}
	if r, err := FindRoot(func(x float64) float64 { return x - 1 }, 0, 1, 1e-12); err != nil || r != 1 {
		t.Errorf("endpoint b: %v %v", r, err)
	}
	// No bracket.
	if _, err := FindRoot(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12); err != ErrNoBracket {
		t.Errorf("expected ErrNoBracket, got %v", err)
	}
}

func TestFindRootSteep(t *testing.T) {
	f := func(x float64) float64 { return math.Tanh(50*(x-0.123)) + 1e-3 }
	root, err := FindRoot(f, 0, 1, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f(root)) > 1e-8 {
		t.Errorf("steep root residual = %g at x=%g", f(root), root)
	}
}

func TestMinimizeGolden(t *testing.T) {
	x, fx := MinimizeGolden(func(x float64) float64 { return (x - 0.7) * (x - 0.7) }, 0, 2, 1e-10)
	if !near(x, 0.7, 1e-8) || fx > 1e-15 {
		t.Errorf("min at %.12g (f=%g)", x, fx)
	}
	// Monotone function: minimum at an endpoint.
	x, _ = MinimizeGolden(func(x float64) float64 { return x }, 1, 5, 1e-10)
	if !near(x, 1, 1e-8) {
		t.Errorf("monotone min at %.12g, want 1", x)
	}
}

func TestTable(t *testing.T) {
	if _, err := NewTable([]float64{0}, []float64{1}); err != ErrBadTable {
		t.Errorf("short table: %v", err)
	}
	if _, err := NewTable([]float64{0, 0}, []float64{1, 2}); err != ErrBadTable {
		t.Errorf("non-increasing table: %v", err)
	}
	if _, err := NewTable([]float64{0, 1}, []float64{1}); err != ErrBadTable {
		t.Errorf("mismatched lengths: %v", err)
	}
	tab, err := NewTable([]float64{0, 1, 3}, []float64{0, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 1}, {1, 2}, {2, 2}, {3, 2}, {9, 2},
	}
	for _, c := range cases {
		if got := tab.At(c.x); !near(got, c.want, 1e-12) {
			t.Errorf("At(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if len(tab.xs) != 3 {
		t.Errorf("len(xs) = %d", len(tab.xs))
	}
	tab.Scale(2)
	if got := tab.At(0.5); !near(got, 2, 1e-12) {
		t.Errorf("scaled At(0.5) = %g, want 2", got)
	}
}

// Property: table interpolation is exact at the knots and bounded by the
// local ordinates between them.
func TestTableInterpolationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		x := rng.Float64()
		for i := 0; i < n; i++ {
			x += 0.01 + rng.Float64()
			xs[i] = x
			ys[i] = rng.NormFloat64()
		}
		tab, err := NewTable(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if got := tab.At(xs[i]); !near(got, ys[i], 1e-9) {
				t.Fatalf("knot %d: At=%g want %g", i, got, ys[i])
			}
		}
		for i := 1; i < n; i++ {
			mid := 0.5 * (xs[i-1] + xs[i])
			v := tab.At(mid)
			lo := math.Min(ys[i-1], ys[i])
			hi := math.Max(ys[i-1], ys[i])
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("midpoint out of bounds: %g not in [%g,%g]", v, lo, hi)
			}
		}
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(xs) != 5 {
		t.Fatalf("len = %d", len(xs))
	}
	for i := range xs {
		if !near(xs[i], want[i], 1e-12) {
			t.Errorf("xs[%d] = %g", i, xs[i])
		}
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("n=1: %v", got)
	}
	xs = Linspace(-2, 7, 1000)
	if xs[len(xs)-1] != 7 {
		t.Errorf("endpoint drift: %g", xs[len(xs)-1])
	}
}
