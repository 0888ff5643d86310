package envelope

// Compact returns the envelope with its function table cut down to the
// functions that define an interval — all ValueAt, BelowIntervals and
// StrictlyAbove ever read. Construction hands every level the table of its
// whole input set; a holder that outlives those inputs (the continuous
// layer keeps the levels of a standing question between ingest batches)
// compacts first, so that it pins a handful of functions instead of every
// survivor's. The intervals are shared, not copied.
func (e *Envelope) Compact() *Envelope {
	if e.compact {
		return e
	}
	fns := make(map[int64]*DistanceFunc)
	for _, iv := range e.Intervals {
		fns[iv.ID] = e.fns[iv.ID]
	}
	return &Envelope{Intervals: e.Intervals, T0: e.T0, T1: e.T1, fns: fns, compact: true}
}

// StrictlyAbove reports whether f(t) > e(t) at every instant of the
// envelope's window. The test is exact, not sampled: where a piece of f
// meets a piece of the function defining e, f² − e² is one quadratic, and
// its minimum over their common interval sits at an end or at the vertex.
// A function strictly above the Level-k envelope is nowhere among the k
// pointwise smallest, so adding it to the function set leaves levels 1..k
// as they are — the condition under which the continuous layer keeps a
// standing question's envelope across an update. A tie counts as not
// above.
func StrictlyAbove(f *DistanceFunc, e *Envelope) bool {
	for _, iv := range e.Intervals {
		g := e.fns[iv.ID]
		for i := range f.Pieces {
			pf := &f.Pieces[i]
			if pf.T1 < iv.T0 || pf.T0 > iv.T1 {
				continue
			}
			for k := range g.Pieces {
				pg := &g.Pieces[k]
				lo := max(pf.T0, pg.T0, iv.T0)
				hi := min(pf.T1, pg.T1, iv.T1)
				if hi < lo {
					continue
				}
				if dmin, _ := pairQuad(pf, pg).bounds(lo-pf.Tref, hi-pf.Tref); !(dmin > 0) {
					return false
				}
			}
		}
	}
	return true
}

// quad is the quadratic (a·τ + b)·τ + c in some piece's local time τ.
type quad struct{ a, b, c float64 }

// pairQuad returns f² − g² on pieces pf of f and pg of g as one quadratic
// in pf's local time τ = t − pf.Tref, where the coefficients are
// well-conditioned; pg's own local time is τ + d, d = pf.Tref − pg.Tref.
func pairQuad(pf, pg *Piece) quad {
	d := pf.Tref - pg.Tref
	return quad{pf.A - pg.A, pf.B - (2*pg.A*d + pg.B), pf.C - (pg.A*d*d + pg.B*d + pg.C)}
}

func (q quad) at(tau float64) float64 { return (q.a*tau+q.b)*tau + q.c }

// bounds returns the minimum and maximum of q over [l, h]: at the ends, or
// at the vertex −b/2a inside (a minimum for a > 0, a maximum for a < 0).
func (q quad) bounds(l, h float64) (lo, hi float64) {
	lo, hi = q.at(l), q.at(h)
	if lo > hi {
		lo, hi = hi, lo
	}
	if q.a != 0 {
		if v := -q.b / (2 * q.a); v > l && v < h {
			if y := q.at(v); q.a > 0 {
				lo = min(lo, y)
			} else {
				hi = max(hi, y)
			}
		}
	}
	return lo, hi
}
