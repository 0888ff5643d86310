package envelope

import (
	"math"

	"repro/internal/numeric"
)

// This file keeps the zone-row sampler as it was before BelowIntervals
// learned to skip elementary intervals whose sign a piece-pair bound
// decides: 16 samples per elementary interval, every one of them
// evaluated, an envelope cursor that evaluates the defining function by
// binary search on every sample, and a Brent closure that binary-searches
// the piece and the interval on every probe. It is the oracle the
// bit-identity gate and the fuzz target hold the production scan to;
// nothing outside tests calls it.

type refPieceCursor struct {
	ps []Piece
	i  int
}

func (c *refPieceCursor) valueSq(t float64) float64 {
	for c.i+1 < len(c.ps) && c.ps[c.i].T1 < t {
		c.i++
	}
	return c.ps[c.i].ValueSq(t)
}

type refEnvCursor struct {
	e  *Envelope
	i  int
	fn *DistanceFunc
}

func (c *refEnvCursor) valueSq(t float64) float64 {
	for c.i+1 < len(c.e.Intervals) && c.e.Intervals[c.i].T1 < t {
		c.i++
		c.fn = nil
	}
	if c.fn == nil {
		c.fn = c.e.fns[c.e.Intervals[c.i].ID]
	}
	return c.fn.ValueSq(t)
}

func refValueSqAt(e *Envelope, t float64) float64 {
	iv := e.Intervals[e.at(t)]
	return e.fns[iv.ID].ValueSq(t)
}

// refBelowIntervals is the sampler BelowIntervals replaced, verbatim but
// for the names of its cursors and its unpooled buffers.
func refBelowIntervals(f *DistanceFunc, e *Envelope, delta float64) []TimeInterval {
	cuts := appendCutTimes(nil, f, e)
	slow := func(t float64) float64 { return signedGap(f.ValueSq(t), refValueSqAt(e, t), delta) }
	const samples = 16
	var roots []float64
	fc := refPieceCursor{ps: f.Pieces}
	ec := refEnvCursor{e: e}
	for i := 1; i < len(cuts); i++ {
		t0, t1 := cuts[i-1], cuts[i]
		if t1-t0 <= TimeEps {
			continue
		}
		prevT := t0
		prevV := signedGap(fc.valueSq(t0), ec.valueSq(t0), delta)
		for s := 1; s <= samples; s++ {
			t := t0 + (t1-t0)*float64(s)/samples
			v := signedGap(fc.valueSq(t), ec.valueSq(t), delta)
			if (prevV < 0) != (v < 0) {
				if r, err := numeric.FindRoot(slow, prevT, t, TimeEps); err == nil {
					roots = append(roots, r)
				}
			}
			prevT, prevV = t, v
		}
	}
	cl := []float64{e.T0}
	for _, r := range roots {
		if r > e.T0 && r < e.T1 {
			cl = append(cl, r)
		}
	}
	cl = append(cl, e.T1)
	cl = dedupTimes(cl)
	var out []TimeInterval
	fc = refPieceCursor{ps: f.Pieces}
	ec = refEnvCursor{e: e}
	for i := 1; i < len(cl); i++ {
		t0, t1 := cl[i-1], cl[i]
		if t1-t0 <= TimeEps {
			continue
		}
		mid := 0.5 * (t0 + t1)
		if signedGap(fc.valueSq(mid), ec.valueSq(mid), delta) <= 0 {
			if n := len(out); n > 0 && math.Abs(out[n-1].T1-t0) <= TimeEps {
				out[n-1].T1 = t1
			} else {
				out = append(out, TimeInterval{T0: t0, T1: t1})
			}
		}
	}
	return out
}

// sameBits reports whether two zone rows hold the same intervals with
// bit-identical bounds.
func sameBits(a, b []TimeInterval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].T0) != math.Float64bits(b[i].T0) ||
			math.Float64bits(a[i].T1) != math.Float64bits(b[i].T1) {
			return false
		}
	}
	return true
}
