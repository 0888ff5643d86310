// Package uncertain implements the probabilistic machinery of the paper's
// Section 2.2 and Section 3.1 for instantaneous nearest-neighbor queries
// over uncertain objects:
//
//   - the within-distance probability P^WD (Eq. 3, with the uniform-pdf
//     closed form of Eq. 4 expressed through the circle-intersection area),
//   - the nearest-neighbor probability P^NN (Eq. 5) evaluated with the
//     sorted-interval decomposition of Cheng et al. [4] over a bounded
//     integration ring [R^min, R^max],
//   - the reduction of the uncertain-query case to the crisp-query case:
//     Eq. 5 against the convolution of the object and query pdfs
//     (updf.ConvolvePair, Section 3.1), which the threshold queries run,
//     and
//   - Theorem 1's distance ranking, together with Monte Carlo estimators
//     used as test oracles.
//
// Throughout, the query point is the origin of the working frame and each
// candidate object is described by the distance of its (possibly convolved)
// pdf center from that origin.
package uncertain

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/numeric"
	"repro/internal/updf"
)

// DefaultGrid is the number of integration cells used by the Eq. 5
// evaluator when the caller passes grid <= 0.
const DefaultGrid = 512

// ErrNoSampler is returned by Monte Carlo estimators when the pdf cannot
// sample.
var ErrNoSampler = errors.New("uncertain: pdf does not implement updf.Sampler")

// Candidate identifies an uncertain object by ID and by the distance of its
// pdf center (expected location, after convolution when the query is
// uncertain) from the query origin.
type Candidate struct {
	ID   int64
	Dist float64
}

// WithinDistanceProb returns P^WD(rd): the probability that an object whose
// location pdf is p, centered at distance d from the (crisp) query point,
// lies within distance rd of the query point (Eq. 3).
//
// For a uniform disk pdf this equals the intersection area of the query
// disk and the uncertainty disk divided by the uncertainty disk's area —
// the closed form the paper states as Eq. 4. For every other rotationally
// symmetric pdf the radial decomposition
//
//	P^WD(rd) = ∫₀^Support g(rho) · 2·theta(d, rho, rd) · rho  d rho
//
// is used, where theta is the chord half-angle of geom.ChordHalfAngle.
func WithinDistanceProb(p updf.RadialPDF, d, rd float64) float64 {
	if rd <= 0 {
		return 0
	}
	sup := p.Support()
	if d-sup >= rd {
		return 0
	}
	if d+sup <= rd {
		return 1
	}
	if u, ok := p.(updf.UniformDisk); ok {
		lens := geom.LensArea(
			geom.Disk{C: geom.Point{X: 0, Y: 0}, R: rd},
			geom.Disk{C: geom.Point{X: d, Y: 0}, R: u.R},
		)
		return math.Min(1, lens/(math.Pi*u.R*u.R))
	}
	f := func(rho float64) float64 {
		g := p.Density(rho)
		if g == 0 {
			return 0
		}
		return g * 2 * geom.ChordHalfAngle(d, rho, rd) * rho
	}
	// The integrand has kinks where the circle of radius rho first touches
	// and last leaves the query disk: rho = |d − rd| and rho = d + rd.
	breaks := []float64{0, sup}
	for _, b := range []float64{math.Abs(d - rd), d + rd} {
		if b > 0 && b < sup {
			breaks = append(breaks, b)
		}
	}
	sort.Float64s(breaks)
	var total float64
	for i := 1; i < len(breaks); i++ {
		if breaks[i]-breaks[i-1] < 1e-15 {
			continue
		}
		total += numeric.GaussLegendrePanels(f, breaks[i-1], breaks[i], 4)
	}
	if total < 0 {
		return 0
	}
	if total > 1 {
		return 1
	}
	return total
}

// RingBounds returns the integration ring of observation I/III in
// Section 2.2: lo is the smallest R^min over candidates, hi is the smallest
// R^max (the distance to the farthest point of the closest disk). Any
// candidate whose R^min exceeds hi has zero NN probability.
func RingBounds(p updf.RadialPDF, cands []Candidate) (lo, hi float64) {
	sup := p.Support()
	lo, hi = math.Inf(1), math.Inf(1)
	for _, c := range cands {
		rmin := math.Max(0, c.Dist-sup)
		rmax := c.Dist + sup
		if rmin < lo {
			lo = rmin
		}
		if rmax < hi {
			hi = rmax
		}
	}
	return lo, hi
}

// Prune removes candidates that can never be the nearest neighbor
// (observation I: R^min_i > R^max of the closest disk). The returned slice
// preserves input order; the input is not modified.
func Prune(p updf.RadialPDF, cands []Candidate) []Candidate {
	if len(cands) == 0 {
		return nil
	}
	sup := p.Support()
	_, hi := RingBounds(p, cands)
	out := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		if math.Max(0, c.Dist-sup) <= hi {
			out = append(out, c)
		}
	}
	return out
}

// NNProbabilities evaluates Eq. 5 for every candidate: the exclusive
// probability that candidate j is the nearest neighbor of the crisp query
// at the origin, all candidates sharing the location pdf p at their
// respective center distances.
//
// The integral over R_d is discretized on a uniform grid of `grid` cells
// spanning the ring [min R^min, min R^max] (grid <= 0 selects
// DefaultGrid). Within each cell, P^NN_j accumulates
// ΔP^WD_j · Π_{i≠j}(1 − P^WD_i) with the product maintained incrementally
// — the grid analogue of the sorted-interval decomposition of [4]. Pruned
// candidates (observation I) receive probability 0 without integration.
//
// The result maps candidate ID to probability. Because ties between
// continuous distance variables have measure zero, the values sum to 1 up
// to discretization error O(1/grid).
func NNProbabilities(p updf.RadialPDF, cands []Candidate, grid int) map[int64]float64 {
	out := make(map[int64]float64, len(cands))
	if len(cands) == 0 {
		return out
	}
	for _, c := range cands {
		out[c.ID] = 0
	}
	if grid <= 0 {
		grid = DefaultGrid
	}
	live := Prune(p, cands)
	if len(live) == 1 {
		out[live[0].ID] = 1
		return out
	}
	lo, hi := RingBounds(p, cands)
	if !(hi > lo) {
		// Degenerate ring (e.g. all candidates at the same point with zero
		// support): split the mass evenly among the closest candidates.
		minD := math.Inf(1)
		for _, c := range live {
			if c.Dist < minD {
				minD = c.Dist
			}
		}
		var closest []int64
		for _, c := range live {
			if c.Dist == minD {
				closest = append(closest, c.ID)
			}
		}
		for _, id := range closest {
			out[id] = 1 / float64(len(closest))
		}
		return out
	}

	n := len(live)
	// CDF values at cell edges for each live candidate.
	edges := numeric.Linspace(lo, hi, grid+1)
	cdf := make([][]float64, n)
	for i, c := range live {
		col := make([]float64, len(edges))
		for k, r := range edges {
			col[k] = WithinDistanceProb(p, c.Dist, r)
		}
		cdf[i] = col
	}
	// Incremental product of (1 − P_i) across all live candidates at each
	// edge, with zero-factor bookkeeping so the "divide out one factor"
	// trick stays exact when some P_i reaches 1.
	const zeroEps = 1e-14
	prod := make([]float64, len(edges))
	zeros := make([]int, len(edges))
	for k := range edges {
		pr := 1.0
		z := 0
		for i := 0; i < n; i++ {
			f := 1 - cdf[i][k]
			if f <= zeroEps {
				z++
				continue
			}
			pr *= f
		}
		prod[k] = pr
		zeros[k] = z
	}
	exclProd := func(i, k int) float64 {
		f := 1 - cdf[i][k]
		if f <= zeroEps {
			if zeros[k] == 1 {
				return prod[k]
			}
			return 0
		}
		if zeros[k] > 0 {
			return 0
		}
		return prod[k] / f
	}
	for i, c := range live {
		var s float64
		for k := 0; k < grid; k++ {
			dP := cdf[i][k+1] - cdf[i][k]
			if dP <= 0 {
				continue
			}
			s += dP * 0.5 * (exclProd(i, k) + exclProd(i, k+1))
		}
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		out[c.ID] = s
	}
	return out
}

// NNProbabilitiesNaive evaluates Eq. 5 without pruning and without bounding
// the ring: it integrates every candidate over [0, max R^max]. It exists as
// the ablation baseline quantifying the value of observations I and III.
func NNProbabilitiesNaive(p updf.RadialPDF, cands []Candidate, grid int) map[int64]float64 {
	out := make(map[int64]float64, len(cands))
	if len(cands) == 0 {
		return out
	}
	if grid <= 0 {
		grid = DefaultGrid
	}
	sup := p.Support()
	hi := 0.0
	for _, c := range cands {
		if c.Dist+sup > hi {
			hi = c.Dist + sup
		}
	}
	if hi == 0 {
		for _, c := range cands {
			out[c.ID] = 1 / float64(len(cands))
		}
		return out
	}
	edges := numeric.Linspace(0, hi, grid+1)
	n := len(cands)
	cdf := make([][]float64, n)
	for i, c := range cands {
		col := make([]float64, len(edges))
		for k, r := range edges {
			col[k] = WithinDistanceProb(p, c.Dist, r)
		}
		cdf[i] = col
	}
	for i, c := range cands {
		var s float64
		for k := 0; k < grid; k++ {
			dP := cdf[i][k+1] - cdf[i][k]
			if dP <= 0 {
				continue
			}
			pr0, pr1 := 1.0, 1.0
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				pr0 *= 1 - cdf[j][k]
				pr1 *= 1 - cdf[j][k+1]
			}
			s += dP * 0.5 * (pr0 + pr1)
		}
		out[c.ID] = math.Min(1, math.Max(0, s))
	}
	return out
}

// RankByDistance returns the candidates sorted by ascending center
// distance, which by Theorem 1 is exactly the descending order of their NN
// probabilities when all share a rotationally symmetric pdf. Ties keep
// input order (stable). The input is not modified.
func RankByDistance(cands []Candidate) []Candidate {
	out := append([]Candidate(nil), cands...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	return out
}

// MonteCarloNN estimates the NN probabilities empirically: each trial draws
// a displacement for every candidate from p (which must implement
// updf.Sampler), places it around the candidate's center at (Dist, 0), and
// awards the trial to the candidate closest to the origin. It is the test
// oracle for NNProbabilities and Theorem 1.
func MonteCarloNN(p updf.RadialPDF, cands []Candidate, trials int, rng *rand.Rand) (map[int64]float64, error) {
	s, ok := p.(updf.Sampler)
	if !ok {
		return nil, ErrNoSampler
	}
	wins := make(map[int64]int, len(cands))
	for _, c := range cands {
		wins[c.ID] = 0
	}
	for t := 0; t < trials; t++ {
		best := int64(-1)
		bestD := math.Inf(1)
		for _, c := range cands {
			dx, dy := s.Sample(rng)
			d := math.Hypot(c.Dist+dx, dy)
			if d < bestD {
				bestD = d
				best = c.ID
			}
		}
		wins[best]++
	}
	out := make(map[int64]float64, len(cands))
	for id, w := range wins {
		out[id] = float64(w) / float64(trials)
	}
	return out, nil
}

// MonteCarloUncertainQueryNN is the two-sided oracle: both the query and
// the candidates draw displacements; used to validate Section 3.1's
// reduction end to end (Eq. 5 over updf.ConvolvePair of the object and
// query pdfs). The convolution gives each distance |V_i − V_q| its exact
// marginal, but the distances share V_q while Eq. 5 treats them as
// independent: the reduction's values are an approximation, the ranking
// they induce is exact (Theorem 1).
func MonteCarloUncertainQueryNN(objPDF, qryPDF updf.RadialPDF, cands []Candidate, trials int, rng *rand.Rand) (map[int64]float64, error) {
	so, okO := objPDF.(updf.Sampler)
	sq, okQ := qryPDF.(updf.Sampler)
	if !okO || !okQ {
		return nil, ErrNoSampler
	}
	wins := make(map[int64]int, len(cands))
	for _, c := range cands {
		wins[c.ID] = 0
	}
	for t := 0; t < trials; t++ {
		qx, qy := sq.Sample(rng)
		best := int64(-1)
		bestD := math.Inf(1)
		for _, c := range cands {
			dx, dy := so.Sample(rng)
			d := math.Hypot(c.Dist+dx-qx, dy-qy)
			if d < bestD {
				bestD = d
				best = c.ID
			}
		}
		wins[best]++
	}
	out := make(map[int64]float64, len(cands))
	for id, w := range wins {
		out[id] = float64(w) / float64(trials)
	}
	return out, nil
}
