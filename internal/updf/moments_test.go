package updf

// Integrals of a radial pdf the tests check the package's pdfs and
// convolutions against.

import (
	"math"

	"repro/internal/numeric"
)

// Mass integrates the pdf over the plane; it should be 1 for any
// well-formed RadialPDF.
func Mass(p RadialPDF) float64 {
	f := func(rho float64) float64 { return p.Density(rho) * 2 * math.Pi * rho }
	return numeric.GaussLegendrePanels(f, 0, p.Support(), 64)
}

// RadialCDF returns P(|X| <= rho) for a displacement X distributed with the
// given pdf (its own frame, centered at the origin).
func RadialCDF(p RadialPDF, rho float64) float64 {
	if rho <= 0 {
		return 0
	}
	if rho >= p.Support() {
		return 1
	}
	f := func(x float64) float64 { return p.Density(x) * 2 * math.Pi * x }
	return math.Min(1, numeric.GaussLegendrePanels(f, 0, rho, 32))
}

// SecondMoment returns E[rho²] = ∫ rho²·p(rho)·2π·rho d rho, the radial
// second moment about the center. For independent displacements the
// second moments add under convolution (the quantitative companion of
// Property 1): SecondMoment(g ◦ h) = SecondMoment(g) + SecondMoment(h),
// because the cross term E[X_g·X_h] vanishes by symmetry.
func SecondMoment(p RadialPDF) float64 {
	f := func(rho float64) float64 { return p.Density(rho) * 2 * math.Pi * rho * rho * rho }
	return numeric.GaussLegendrePanels(f, 0, p.Support(), 64)
}

// StdDev returns the per-axis standard deviation sqrt(E[rho²]/2) of a
// rotationally symmetric displacement.
func StdDev(p RadialPDF) float64 { return math.Sqrt(SecondMoment(p) / 2) }
