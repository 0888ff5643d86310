package queries

import (
	"slices"

	"repro/internal/trajectory"
)

// This file implements two of the paper's Section 7 future-work variants:
// all-pairs continuous probabilistic NN (every object's possible-NN set)
// and reverse continuous probabilistic NN (for which objects can the
// target be the nearest neighbor).

// AllPairsPossibleNN computes, for every trajectory q in trs, the set of
// objects with non-zero probability of being q's nearest neighbor at some
// time in [tb, te] (UQ31 with each object as the query in turn). The
// result maps query OID to the sorted possible-NN OIDs. Total cost is
// O(N · N log N): one envelope preprocessing per query object.
func AllPairsPossibleNN(trs []*trajectory.Trajectory, tb, te, r float64) (map[int64][]int64, error) {
	out := make(map[int64][]int64, len(trs))
	for _, q := range trs {
		p, err := NewProcessor(trs, q, tb, te, r)
		if err != nil {
			return nil, err
		}
		out[q.OID] = p.UQ31()
	}
	return out, nil
}

// ReversePossibleNN returns the objects q (other than the target) for
// which the target has non-zero probability of being q's nearest neighbor
// at some time in [tb, te] — the reverse continuous probabilistic NN
// query. Sorted by OID.
func ReversePossibleNN(trs []*trajectory.Trajectory, target *trajectory.Trajectory, tb, te, r float64) ([]int64, error) {
	var out []int64
	for _, q := range trs {
		if q.OID == target.OID {
			continue
		}
		p, err := NewProcessor(trs, q, tb, te, r)
		if err != nil {
			return nil, err
		}
		ok, err := p.UQ11(target.OID)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, q.OID)
		}
	}
	slices.Sort(out)
	return out, nil
}
