// Package updf models the rotationally symmetric location probability
// density functions the paper attaches to uncertain trajectories
// (Section 2.1) and implements the convolution transformation of
// Section 3.1: the pdf of the difference random variable
// V_iq = V_i - V_q is the convolution pdf(V_i) ◦ pdf(-V_q) (Eq. 6 of the
// paper), which for two uniform disks of radius r is a cone of base radius
// 2r and apex height 3/(4·r²·π) (Eq. 7).
//
// A RadialPDF describes a 2D density that depends only on the distance rho
// from its center; the normalization convention is
//
//	∫₀^Support  g(rho) · 2·π·rho  d rho = 1.
//
// The package provides the paper's uniform and bounded-Gaussian models, the
// analytic uniform◦uniform cone, a generic numeric radial convolution for
// every other pair, and samplers used by Monte Carlo test oracles.
package updf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/numeric"
)

// RadialPDF is a rotationally symmetric 2D probability density function
// centered at the origin of its own frame. Implementations must be
// normalized so that the density integrated over the plane equals 1.
type RadialPDF interface {
	// Support returns the radius beyond which the density is exactly 0.
	Support() float64
	// Density returns the 2D density at distance rho from the center.
	// It must return 0 for rho > Support() and be finite everywhere.
	Density(rho float64) float64
	// Name returns a short human-readable identifier.
	Name() string
}

// Sampler is implemented by pdfs that can draw a random displacement from
// their distribution. All built-in pdfs implement it.
type Sampler interface {
	// Sample returns a displacement (dx, dy) drawn from the pdf.
	Sample(rng *rand.Rand) (dx, dy float64)
}

// UniformDisk is the paper's default model (Eq. 2): uniform density
// 1/(π·r²) inside the disk of radius R.
type UniformDisk struct {
	R float64
}

// NewUniformDisk returns a uniform-disk pdf with radius r (> 0).
func NewUniformDisk(r float64) UniformDisk {
	if r <= 0 {
		panic("updf: UniformDisk radius must be positive")
	}
	return UniformDisk{R: r}
}

// Support implements RadialPDF.
func (u UniformDisk) Support() float64 { return u.R }

// Density implements RadialPDF.
func (u UniformDisk) Density(rho float64) float64 {
	if rho > u.R || rho < 0 {
		return 0
	}
	return 1 / (math.Pi * u.R * u.R)
}

// Name implements RadialPDF.
func (u UniformDisk) Name() string { return fmt.Sprintf("uniform(r=%g)", u.R) }

// Sample implements Sampler: uniform over the disk via sqrt radius.
func (u UniformDisk) Sample(rng *rand.Rand) (float64, float64) {
	rho := u.R * math.Sqrt(rng.Float64())
	th := 2 * math.Pi * rng.Float64()
	return rho * math.Cos(th), rho * math.Sin(th)
}

// Cone is the paper's stated model (Eq. 7) for the convolution of two
// uniform disks of radius R2/2 each: density (3/(4·r²·π))·(1 − rho/(2r))
// with r = R2/2, support R2 = 2r, apex height 3/(4·r²·π).
//
// Note: Eq. 7 is an approximation. The exact convolution of two uniform
// disks is UniformConv (the normalized lens-area profile), whose value at
// the origin is 1/(π·r²). Both are rotationally symmetric with support 2r,
// so every ranking and pruning result of the paper (Lemma 1, Theorem 1,
// the 4r pruning zone) is identical under either model; Cone is kept for
// fidelity to the paper's formulas and as a cheap closed form.
type Cone struct {
	R2 float64 // base radius (= 2r for the uniform◦uniform case)
}

// NewCone returns a cone pdf with base radius r2 (> 0).
func NewCone(r2 float64) Cone {
	if r2 <= 0 {
		panic("updf: Cone base radius must be positive")
	}
	return Cone{R2: r2}
}

// Support implements RadialPDF.
func (c Cone) Support() float64 { return c.R2 }

// Density implements RadialPDF.
func (c Cone) Density(rho float64) float64 {
	if rho > c.R2 || rho < 0 {
		return 0
	}
	r := c.R2 / 2
	return 3 / (4 * r * r * math.Pi) * (1 - rho/c.R2)
}

// Name implements RadialPDF.
func (c Cone) Name() string { return fmt.Sprintf("cone(r2=%g)", c.R2) }

// Sample implements Sampler by inverse-CDF sampling of the radial marginal
// m(rho) ∝ rho·(1 − rho/R2) via bisection (the cubic CDF has no convenient
// closed-form inverse).
func (c Cone) Sample(rng *rand.Rand) (float64, float64) {
	u := rng.Float64()
	// CDF(rho) = (3·rho² / R2²) − (2·rho³ / R2³); solve CDF(rho) = u.
	lo, hi := 0.0, c.R2
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		x := mid / c.R2
		if 3*x*x-2*x*x*x < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	rho := 0.5 * (lo + hi)
	th := 2 * math.Pi * rng.Float64()
	return rho * math.Cos(th), rho * math.Sin(th)
}

// UniformConv is the exact convolution of two uniform disks with radii R1
// and R2: its density at offset rho is the area of the intersection of the
// two disks placed rho apart, normalized by both disk areas,
//
//	f(rho) = LensArea(Disk(0,R1), Disk(rho,R2)) / (π·R1² · π·R2²).
//
// Support is R1+R2. For R1 = R2 = r this is what the paper's Eq. 7
// approximates with the cone of base radius 2r.
type UniformConv struct {
	R1, R2 float64
}

// NewUniformConv returns the exact uniform◦uniform convolution pdf.
func NewUniformConv(r1, r2 float64) UniformConv {
	if r1 <= 0 || r2 <= 0 {
		panic("updf: UniformConv radii must be positive")
	}
	return UniformConv{R1: r1, R2: r2}
}

// Support implements RadialPDF.
func (u UniformConv) Support() float64 { return u.R1 + u.R2 }

// Density implements RadialPDF.
func (u UniformConv) Density(rho float64) float64 {
	if rho < 0 || rho > u.R1+u.R2 {
		return 0
	}
	return geom.LensArea(
		geom.Disk{C: geom.Point{X: 0, Y: 0}, R: u.R1},
		geom.Disk{C: geom.Point{X: rho, Y: 0}, R: u.R2},
	) / (math.Pi * u.R1 * u.R1 * math.Pi * u.R2 * u.R2)
}

// Name implements RadialPDF.
func (u UniformConv) Name() string { return fmt.Sprintf("uniformConv(r1=%g, r2=%g)", u.R1, u.R2) }

// Sample implements Sampler as the sum of two independent uniform draws.
func (u UniformConv) Sample(rng *rand.Rand) (float64, float64) {
	ax, ay := UniformDisk{R: u.R1}.Sample(rng)
	bx, by := UniformDisk{R: u.R2}.Sample(rng)
	return ax + bx, ay + by
}

// BoundedGaussian is a Gaussian with scale Sigma truncated to the disk of
// radius R and renormalized, one of the location pdfs the paper's Figure 3
// names ("bounded-Gaussian").
type BoundedGaussian struct {
	R, Sigma float64
	k        float64 // normalization constant
}

// NewBoundedGaussian returns a truncated-Gaussian pdf with cutoff radius r
// and scale sigma (both > 0).
func NewBoundedGaussian(r, sigma float64) BoundedGaussian {
	if r <= 0 || sigma <= 0 {
		panic("updf: BoundedGaussian needs positive radius and sigma")
	}
	mass := 2 * math.Pi * sigma * sigma * (1 - math.Exp(-r*r/(2*sigma*sigma)))
	return BoundedGaussian{R: r, Sigma: sigma, k: 1 / mass}
}

// Support implements RadialPDF.
func (g BoundedGaussian) Support() float64 { return g.R }

// Density implements RadialPDF.
func (g BoundedGaussian) Density(rho float64) float64 {
	if rho > g.R || rho < 0 {
		return 0
	}
	return g.k * math.Exp(-rho*rho/(2*g.Sigma*g.Sigma))
}

// Name implements RadialPDF.
func (g BoundedGaussian) Name() string {
	return fmt.Sprintf("boundedGaussian(r=%g, sigma=%g)", g.R, g.Sigma)
}

// Sample implements Sampler by rejection from the untruncated Gaussian.
func (g BoundedGaussian) Sample(rng *rand.Rand) (float64, float64) {
	for {
		dx := rng.NormFloat64() * g.Sigma
		dy := rng.NormFloat64() * g.Sigma
		if dx*dx+dy*dy <= g.R*g.R {
			return dx, dy
		}
	}
}

// Epanechnikov is the parabolic density K·(1 − rho²/R²) on the disk of
// radius R; another rotationally symmetric model exercised in tests of
// Theorem 1's generality.
type Epanechnikov struct {
	R float64
}

// NewEpanechnikov returns an Epanechnikov pdf with radius r (> 0).
func NewEpanechnikov(r float64) Epanechnikov {
	if r <= 0 {
		panic("updf: Epanechnikov radius must be positive")
	}
	return Epanechnikov{R: r}
}

// Support implements RadialPDF.
func (e Epanechnikov) Support() float64 { return e.R }

// Density implements RadialPDF.
func (e Epanechnikov) Density(rho float64) float64 {
	if rho > e.R || rho < 0 {
		return 0
	}
	return 2 / (math.Pi * e.R * e.R) * (1 - rho*rho/(e.R*e.R))
}

// Name implements RadialPDF.
func (e Epanechnikov) Name() string { return fmt.Sprintf("epanechnikov(r=%g)", e.R) }

// Sample implements Sampler via inverse CDF of the radial marginal:
// CDF(x=rho/R) = 2x² − x⁴, whose inverse is x = sqrt(1 − sqrt(1−u)).
func (e Epanechnikov) Sample(rng *rand.Rand) (float64, float64) {
	u := rng.Float64()
	x := math.Sqrt(1 - math.Sqrt(1-u))
	rho := e.R * x
	th := 2 * math.Pi * rng.Float64()
	return rho * math.Cos(th), rho * math.Sin(th)
}

// TablePDF is a radial pdf backed by a sampled profile (piecewise-linear in
// rho). It is the result type of the numeric Convolve and is normalized at
// construction.
type TablePDF struct {
	tab     *numeric.Table
	support float64
	name    string
}

// NewTablePDF builds a TablePDF from density samples ys at strictly
// increasing radii xs (xs[0] must be 0). The profile is renormalized so the
// plane integral is exactly 1.
func NewTablePDF(xs, ys []float64, name string) (*TablePDF, error) {
	tab, err := numeric.NewTable(xs, ys)
	if err != nil {
		return nil, err
	}
	p := &TablePDF{tab: tab, support: xs[len(xs)-1], name: name}
	mass := p.mass()
	if mass <= 0 {
		return nil, errors.New("updf: table pdf has nonpositive mass")
	}
	tab.Scale(1 / mass)
	return p, nil
}

func (p *TablePDF) mass() float64 {
	f := func(rho float64) float64 { return p.tab.At(rho) * 2 * math.Pi * rho }
	return numeric.GaussLegendrePanels(f, 0, p.support, 32)
}

// Support implements RadialPDF.
func (p *TablePDF) Support() float64 { return p.support }

// Density implements RadialPDF.
func (p *TablePDF) Density(rho float64) float64 {
	if rho > p.support || rho < 0 {
		return 0
	}
	v := p.tab.At(rho)
	if v < 0 {
		return 0
	}
	return v
}

// Name implements RadialPDF.
func (p *TablePDF) Name() string { return p.name }

// Convolve numerically convolves two rotationally symmetric pdfs and
// returns the (rotationally symmetric, Property 2) result sampled at n
// radii. The double integral per sample point is
//
//	f(s) = ∫₀^{Rg} g(rho) · [ ∫₀^{2π} h( sqrt(s² + rho² − 2·s·rho·cos φ) ) dφ ] · rho  d rho
//
// evaluated with nested Gauss-Legendre panels. n defaults to 129 when <= 1.
func Convolve(g, h RadialPDF, n int) (*TablePDF, error) {
	if n <= 1 {
		n = 129
	}
	sup := g.Support() + h.Support()
	xs := numeric.Linspace(0, sup, n)
	ys := make([]float64, n)
	for i, s := range xs {
		ys[i] = convolveAt(g, h, s)
	}
	return NewTablePDF(xs, ys, fmt.Sprintf("conv(%s, %s)", g.Name(), h.Name()))
}

func convolveAt(g, h RadialPDF, s float64) float64 {
	rg, rh := g.Support(), h.Support()
	outer := func(rho float64) float64 {
		gd := g.Density(rho)
		if gd == 0 {
			return 0
		}
		// Distance from the fixed offset s to a point at radius rho and
		// angle phi is d(phi) = sqrt(s² + rho² − 2·s·rho·cos φ), increasing
		// from |s−rho| to s+rho. Restrict to the angular window where
		// d <= Support(h): the integrand is smooth there, and zero outside.
		if s == 0 || rho == 0 {
			d := math.Max(s, rho)
			return gd * 2 * math.Pi * h.Density(d) * rho
		}
		dmin := math.Abs(s - rho)
		if dmin >= rh {
			return 0
		}
		phiMax := math.Pi
		if s+rho > rh {
			c := (s*s + rho*rho - rh*rh) / (2 * s * rho)
			if c > 1 {
				c = 1
			} else if c < -1 {
				c = -1
			}
			phiMax = math.Acos(c)
		}
		inner := func(phi float64) float64 {
			d := math.Sqrt(math.Max(0, s*s+rho*rho-2*s*rho*math.Cos(phi)))
			return h.Density(d)
		}
		iv := 2 * numeric.GaussLegendrePanels(inner, 0, phiMax, 4)
		return gd * iv * rho
	}
	// Split the outer integral where the angular window changes shape:
	// rho = |s − rh| (window opens) and rho = s + rh or rh − s (window
	// saturates or closes). Kinks at these radii would otherwise degrade
	// the Gauss-Legendre panels.
	breaks := []float64{0, rg}
	for _, b := range []float64{math.Abs(s - rh), rh - s, s + rh, rh + s - rg} {
		if b > 0 && b < rg {
			breaks = append(breaks, b)
		}
	}
	sortFloats(breaks)
	var total float64
	for i := 1; i < len(breaks); i++ {
		if breaks[i]-breaks[i-1] < 1e-15 {
			continue
		}
		total += numeric.GaussLegendrePanels(outer, breaks[i-1], breaks[i], 4)
	}
	return total
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// ConvolveAnalytic returns a closed-form convolution when one is known:
// two uniform disks yield the exact UniformConv (of which the paper's
// Eq. 7 cone is an approximation for equal radii). The second return
// reports whether a closed form was found.
func ConvolveAnalytic(g, h RadialPDF) (RadialPDF, bool) {
	gu, okG := g.(UniformDisk)
	hu, okH := h.(UniformDisk)
	if okG && okH {
		return NewUniformConv(gu.R, hu.R), true
	}
	return nil, false
}

// ConvolvePair returns the convolution of g and h, preferring the analytic
// form and falling back to the numeric one with n samples.
func ConvolvePair(g, h RadialPDF, n int) (RadialPDF, error) {
	if p, ok := ConvolveAnalytic(g, h); ok {
		return p, nil
	}
	return Convolve(g, h, n)
}
