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
		for _, pf := range f.Pieces {
			if pf.T1 < iv.T0 || pf.T0 > iv.T1 {
				continue
			}
			for _, pg := range g.Pieces {
				lo := max(pf.T0, pg.T0, iv.T0)
				hi := min(pf.T1, pg.T1, iv.T1)
				if hi < lo {
					continue
				}
				// Both quadratics in pf's local time τ = t − pf.Tref, where
				// the coefficients are well-conditioned; pg's own local time
				// is τ + d.
				d := pf.Tref - pg.Tref
				a := pf.A - pg.A
				b := pf.B - (2*pg.A*d + pg.B)
				c := pf.C - (pg.A*d*d + pg.B*d + pg.C)
				at := func(tau float64) float64 { return (a*tau+b)*tau + c }
				l, h := lo-pf.Tref, hi-pf.Tref
				if at(l) <= 0 || at(h) <= 0 {
					return false
				}
				if a > 0 {
					if v := -b / (2 * a); v > l && v < h && at(v) <= 0 {
						return false
					}
				}
			}
		}
	}
	return true
}
