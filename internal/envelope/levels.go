package envelope

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/pool"
)

// KLevelEnvelopes returns the first k ranked lower envelopes of the
// distance functions over [tb, te]: result[j-1] is the pointwise j-th
// smallest function (the "j-th-lower-envelope" of the paper's Figure 10,
// the geometric dual of the IPAC-NN tree's level-j nodes).
//
// Level j is built by overlaying the breakpoints of levels 1..j-1, and on
// each elementary interval computing the lower envelope of the functions
// that do not define any shallower level there (the interval-wise exclusion
// of Algorithm 3). If fewer than j functions exist somewhere, level j is
// absent there; when no functions remain at all, fewer than k envelopes are
// returned.
//
// Level 1 is LowerEnvelopeOn(pl, ...), and a deeper level's elementary
// intervals run one task each on pl (nil: one after the other on the
// caller), each into its own slot; the slots are joined in interval order,
// so the envelopes are the serial ones bit for bit. As in LowerEnvelopeOn
// the loop runs on a context that never ends. A task's exclusion list,
// remaining functions and LE_Alg stack are pooled scratch; it keeps one
// copy of its intervals for the join, and each level's list is allocated
// once, at its length.
func KLevelEnvelopes(pl *pool.Pool, fns []*DistanceFunc, tb, te float64, k int) ([]*Envelope, error) {
	if len(fns) == 0 {
		return nil, ErrNoFunctions
	}
	if te-tb <= TimeEps {
		return nil, ErrEmptyWindow
	}
	if k < 1 {
		return nil, fmt.Errorf("envelope: k must be >= 1, got %d", k)
	}
	table := make(map[int64]*DistanceFunc, len(fns))
	for _, f := range fns {
		table[f.ID] = f
	}
	var out []*Envelope
	first, err := LowerEnvelopeOn(pl, fns, tb, te)
	if err != nil {
		return nil, err
	}
	out = append(out, first)
	var cutSet []float64
	var subs [][]Interval
	for j := 2; j <= k && j <= len(fns); j++ {
		// Overlay breakpoints of all shallower levels.
		cutSet = append(cutSet[:0], tb, te)
		for _, e := range out {
			for _, iv := range e.Intervals {
				if iv.T1 > tb && iv.T1 < te {
					cutSet = append(cutSet, iv.T1)
				}
			}
		}
		slices.Sort(cutSet)
		cutSet = dedupTimes(cutSet)

		subs = slices.Grow(subs[:0], len(cutSet)-1)[:len(cutSet)-1]
		clear(subs)
		_ = pl.ForEachIndex(context.Background(), len(subs), func(i int) error {
			t0, t1 := cutSet[i], cutSet[i+1]
			if t1-t0 <= TimeEps {
				return nil
			}
			mid := 0.5 * (t0 + t1)
			s := getScratch()
			defer s.put()
			s.excl = s.excl[:0]
			for _, e := range out {
				s.excl = append(s.excl, e.IDAt(mid))
			}
			for _, f := range fns {
				if !slices.Contains(s.excl, f.ID) {
					s.fns = append(s.fns, f)
				}
			}
			if len(s.fns) > 0 {
				s.le(s.fns, t0, t1, table)
				subs[i] = keep(s.ivs)
			}
			return nil
		})
		js := getScratch()
		for _, sub := range subs {
			for _, iv := range sub {
				js.ivs = concatMerge(js.ivs, iv)
			}
		}
		if len(js.ivs) == 0 {
			js.put()
			break
		}
		out = append(out, newEnvelope(keep(js.ivs), table, tb, te))
		js.put()
	}
	return out, nil
}
