package envelope

import (
	"context"
	"fmt"
	"sort"

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
// the loop runs on a context that never ends.
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
	for j := 2; j <= k && j <= len(fns); j++ {
		// Overlay breakpoints of all shallower levels.
		var cutSet []float64
		cutSet = append(cutSet, tb, te)
		for _, e := range out {
			for _, iv := range e.Intervals {
				if iv.T1 > tb && iv.T1 < te {
					cutSet = append(cutSet, iv.T1)
				}
			}
		}
		sort.Float64s(cutSet)
		cutSet = dedupTimes(cutSet)

		subs := make([][]Interval, len(cutSet)-1)
		_ = pl.ForEachIndex(context.Background(), len(subs), func(i int) error {
			t0, t1 := cutSet[i], cutSet[i+1]
			if t1-t0 <= TimeEps {
				return nil
			}
			mid := 0.5 * (t0 + t1)
			excluded := make(map[int64]bool, j-1)
			for _, e := range out {
				excluded[e.IDAt(mid)] = true
			}
			var remaining []*DistanceFunc
			for _, f := range fns {
				if !excluded[f.ID] {
					remaining = append(remaining, f)
				}
			}
			if len(remaining) > 0 {
				subs[i] = leAlg(remaining, t0, t1, table)
			}
			return nil
		})
		var ivs []Interval
		for _, sub := range subs {
			for _, iv := range sub {
				ivs = concatMerge(ivs, iv)
			}
		}
		if len(ivs) == 0 {
			break
		}
		out = append(out, newEnvelope(ivs, table, tb, te))
	}
	return out, nil
}
