package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func near(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointVecAlgebra(t *testing.T) {
	p := Point{1, 2}
	q := Point{4, 6}
	if got := p.Dist(q); !near(got, 5, tol) {
		t.Errorf("Dist = %g, want 5", got)
	}
	if got := p.DistSq(q); !near(got, 25, tol) {
		t.Errorf("DistSq = %g, want 25", got)
	}
	v := q.Sub(p)
	if v != (Vec{3, 4}) {
		t.Errorf("Sub = %v, want <3, 4>", v)
	}
	if got := v.Dot(Vec{1, 0}); !near(got, 3, tol) {
		t.Errorf("Dot = %g", got)
	}
	if got := v.LenSq(); !near(got, 25, tol) {
		t.Errorf("LenSq = %g", got)
	}
}

func TestLerp(t *testing.T) {
	p, q := Point{0, 0}, Point{10, -10}
	cases := []struct {
		s    float64
		want Point
	}{
		{0, p},
		{1, q},
		{0.5, Point{5, -5}},
		{0.25, Point{2.5, -2.5}},
	}
	for _, c := range cases {
		if got := p.Lerp(q, c.s); !near(got.X, c.want.X, tol) || !near(got.Y, c.want.Y, tol) {
			t.Errorf("Lerp(%g) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestSegment(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	if got := s.Dir(); got != (Vec{10, 0}) {
		t.Errorf("Dir = %v", got)
	}
	if got := s.At(0.3); !near(got.X, 3, tol) || !near(got.Y, 0, tol) {
		t.Errorf("At = %v", got)
	}
	cases := []struct {
		p     Point
		param float64
		dist  float64
	}{
		{Point{5, 3}, 0.5, 3},
		{Point{-2, 0}, 0, 2},
		{Point{12, 0}, 1, 2},
		{Point{0, 0}, 0, 0},
	}
	for _, c := range cases {
		if got := s.ClosestParam(c.p); !near(got, c.param, tol) {
			t.Errorf("ClosestParam(%v) = %g, want %g", c.p, got, c.param)
		}
		if got := c.p.Dist(s.At(s.ClosestParam(c.p))); !near(got, c.dist, tol) {
			t.Errorf("distance to %v = %g, want %g", c.p, got, c.dist)
		}
	}
	// Degenerate zero-length segment.
	z := Segment{Point{1, 1}, Point{1, 1}}
	if got := (Point{4, 5}).Dist(z.At(z.ClosestParam(Point{4, 5}))); !near(got, 5, tol) {
		t.Errorf("degenerate distance = %g, want 5", got)
	}
}

// TestDiskBasics reads a disk's area and overlap off LensArea, the one
// disk kernel the probability layer calls.
func TestDiskBasics(t *testing.T) {
	d := Disk{Point{0, 0}, 2}
	if got := LensArea(d, d); !near(got, 4*math.Pi, tol) {
		t.Errorf("LensArea(d, d) = %g, want the disk's area", got)
	}
	if got := LensArea(d, Disk{Point{1, 0}, 0.5}); !near(got, math.Pi/4, tol) {
		t.Errorf("LensArea of a contained disk = %g, want its area", got)
	}
	if got := LensArea(d, Disk{Point{10, 0}, 2}); got != 0 {
		t.Errorf("distant disks overlap by %g", got)
	}
	if got := LensArea(d, Disk{Point{4, 0}, 2}); !near(got, 0, tol) {
		t.Errorf("touching disks overlap by %g", got)
	}
	if got := LensArea(d, Disk{Point{3, 0}, 2}); got <= 0 {
		t.Errorf("overlapping disks overlap by %g", got)
	}
}

func TestLensAreaSpecialCases(t *testing.T) {
	a := Disk{Point{0, 0}, 1}
	cases := []struct {
		name string
		b    Disk
		want float64
	}{
		{"disjoint", Disk{Point{5, 0}, 1}, 0},
		{"touching", Disk{Point{2, 0}, 1}, 0},
		{"identical", Disk{Point{0, 0}, 1}, math.Pi},
		{"contained", Disk{Point{0.1, 0}, 3}, math.Pi},
		{"containing-smaller", Disk{Point{0, 0}, 0.5}, math.Pi * 0.25},
	}
	for _, c := range cases {
		if got := LensArea(a, c.b); !near(got, c.want, 1e-9) {
			t.Errorf("%s: LensArea = %g, want %g", c.name, got, c.want)
		}
		// Symmetry.
		if got, rev := LensArea(a, c.b), LensArea(c.b, a); !near(got, rev, 1e-12) {
			t.Errorf("%s: asymmetric lens %g vs %g", c.name, got, rev)
		}
	}
}

// TestLensAreaVsMonteCarlo cross-checks the analytic lens area against a
// Monte Carlo estimate for partially overlapping disks.
func TestLensAreaVsMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		r1 := 0.5 + 2*rng.Float64()
		r2 := 0.5 + 2*rng.Float64()
		// Force partial overlap.
		dist := math.Abs(r1-r2) + rng.Float64()*(r1+r2-math.Abs(r1-r2))
		a := Disk{Point{0, 0}, r1}
		b := Disk{Point{dist, 0}, r2}
		want := LensArea(a, b)

		const n = 200000
		hits := 0
		// Sample uniformly inside disk a.
		for i := 0; i < n; i++ {
			rho := r1 * math.Sqrt(rng.Float64())
			th := 2 * math.Pi * rng.Float64()
			p := Point{rho * math.Cos(th), rho * math.Sin(th)}
			if p.DistSq(b.C) <= r2*r2 {
				hits++
			}
		}
		got := float64(hits) / n * math.Pi * r1 * r1
		if math.Abs(got-want) > 0.03*(1+want) {
			t.Errorf("trial %d (r1=%g r2=%g d=%g): MC=%g analytic=%g",
				trial, r1, r2, dist, got, want)
		}
	}
}

func TestChordHalfAngle(t *testing.T) {
	cases := []struct {
		name        string
		d, rho, rd  float64
		want        float64
		approxCheck bool
	}{
		{"fully inside", 1, 0.5, 3, math.Pi, false},
		{"fully outside", 5, 0.5, 3, 0, false},
		{"zero rho inside", 1, 0, 3, math.Pi, false},
		{"zero rho outside", 5, 0, 3, 0, false},
		{"zero d, rho inside", 0, 1, 3, math.Pi, false},
		{"zero d, rho outside", 0, 4, 3, 0, false},
		{"query inside circle", 1, 5, 3, 0, false},
		{"half", 3, 3, 3, 0, true}, // angle is acos(3/6)... verify numerically below
	}
	for _, c := range cases {
		got := ChordHalfAngle(c.d, c.rho, c.rd)
		if c.approxCheck {
			want := math.Acos((c.d*c.d + c.rho*c.rho - c.rd*c.rd) / (2 * c.d * c.rho))
			if !near(got, want, tol) {
				t.Errorf("%s: got %g, want %g", c.name, got, want)
			}
			continue
		}
		if !near(got, c.want, tol) {
			t.Errorf("%s: got %g, want %g", c.name, got, c.want)
		}
	}
}

// TestChordHalfAngleFraction validates that theta/pi matches the Monte Carlo
// fraction of a circle inside the query disk.
func TestChordHalfAngleFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		d := rng.Float64() * 4
		rho := rng.Float64() * 3
		rd := rng.Float64() * 4
		theta := ChordHalfAngle(d, rho, rd)
		const n = 20000
		inside := 0
		for i := 0; i < n; i++ {
			phi := 2 * math.Pi * rng.Float64()
			p := Point{d + rho*math.Cos(phi), rho * math.Sin(phi)}
			if p.Dist(Point{}) <= rd {
				inside++
			}
		}
		got := float64(inside) / n
		want := theta / math.Pi
		if math.Abs(got-want) > 0.02 {
			t.Errorf("trial %d (d=%g rho=%g rd=%g): MC fraction=%g analytic=%g",
				trial, d, rho, rd, got, want)
		}
	}
}

func TestAABB(t *testing.T) {
	e := EmptyAABB()
	if !e.IsEmpty() {
		t.Error("EmptyAABB should be empty")
	}
	if e.Area() != 0 {
		t.Error("empty box must have zero measure")
	}
	b := AABBOf(Point{0, 0}, Point{2, 3})
	if b.IsEmpty() {
		t.Error("box of two points should not be empty")
	}
	if got := b.Area(); !near(got, 6, tol) {
		t.Errorf("Area = %g", got)
	}
	if got := b.Center(); got != (Point{1, 1.5}) {
		t.Errorf("Center = %v", got)
	}
	u := b.Union(AABBOf(Point{5, 5}))
	if u.MaxX != 5 || u.MaxY != 5 {
		t.Errorf("Union = %+v", u)
	}
	if got := e.Union(b); got != b {
		t.Errorf("empty Union identity failed: %+v", got)
	}
	if got := b.Union(e); got != b {
		t.Errorf("Union with empty identity failed: %+v", got)
	}
	if !b.Intersects(AABB{1, 1, 5, 5}) {
		t.Error("should intersect")
	}
	if b.Intersects(AABB{10, 10, 11, 11}) {
		t.Error("should not intersect")
	}
	if e.Intersects(b) || b.Intersects(e) {
		t.Error("empty never intersects")
	}
	x := b.Expand(1)
	if x.MinX != -1 || x.MaxY != 4 {
		t.Errorf("Expand = %+v", x)
	}
	if got := b.MinDistTo(Point{1, 1}); got != 0 {
		t.Errorf("MinDistTo inside = %g", got)
	}
	if got := b.MinDistTo(Point{5, 3}); !near(got, 3, tol) {
		t.Errorf("MinDistTo right = %g", got)
	}
	if got := b.MinDistTo(Point{5, 7}); !near(got, 5, tol) {
		t.Errorf("MinDistTo corner = %g", got)
	}
}

// Property: Union is commutative, associative and monotone in area.
func TestAABBUnionProperties(t *testing.T) {
	mk := func(x1, y1, x2, y2 float64) AABB {
		return AABBOf(Point{x1, y1}, Point{x2, y2})
	}
	f := func(a1, b1, c1, d1, a2, b2, c2, d2 float64) bool {
		x, y := mk(a1, b1, c1, d1), mk(a2, b2, c2, d2)
		u1, u2 := x.Union(y), y.Union(x)
		if u1 != u2 {
			return false
		}
		return u1.Area() >= x.Area() && u1.Area() >= y.Area()
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: lens area is bounded by the smaller disk's area and is monotone
// nonincreasing in center distance.
func TestLensAreaProperties(t *testing.T) {
	f := func(r1, r2, d float64) bool {
		r1 = math.Abs(math.Mod(r1, 10))
		r2 = math.Abs(math.Mod(r2, 10))
		d = math.Abs(math.Mod(d, 25))
		a := Disk{Point{0, 0}, r1}
		b := Disk{Point{d, 0}, r2}
		area := LensArea(a, b)
		minArea := math.Pi * math.Min(r1*r1, r2*r2)
		if area < -tol || area > minArea+1e-9 {
			return false
		}
		farther := LensArea(a, Disk{Point{d + 0.5, 0}, r2})
		return farther <= area+1e-9
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
