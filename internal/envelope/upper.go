package envelope

// This file holds the certain counterpart of the possible-NN zone. The
// Huang et al. approach the paper's related work contrasts with ([12]:
// continuous kNN for objects with uncertain velocity) certifies guaranteed
// members with upper envelopes; here no upper envelope is needed: an
// object whose farthest possible distance stays below every other
// object's nearest possible distance is *certainly* the nearest neighbor,
// and that is a BelowIntervals scan against the others' lower envelope.

// GuaranteedNNIntervals returns the maximal intervals during which the
// object with the given ID is *certainly* the nearest neighbor of the
// query: its farthest possible distance d_i(t) + 2r stays below every
// other object's nearest possible distance d_j(t) − 2r, i.e.
// d_i(t) + 4r <= LE_{j≠i}(t). This is the certain counterpart of the
// possible-NN zone of Section 3.2 (and the flavor of guarantee [12]
// extracts from upper envelopes).
func GuaranteedNNIntervals(fns []*DistanceFunc, id int64, e *Envelope, r float64) []TimeInterval {
	var target *DistanceFunc
	others := make([]*DistanceFunc, 0, len(fns)-1)
	for _, f := range fns {
		if f.ID == id {
			target = f
		} else {
			others = append(others, f)
		}
	}
	if target == nil || len(others) == 0 {
		return nil
	}
	otherLE, err := LowerEnvelope(others, e.T0, e.T1)
	if err != nil {
		return nil
	}
	// d_target(t) + 4r <= LE_others(t)  ⟺  d_target(t) − LE_others(t) <= −4r:
	// reuse BelowIntervals with a negative offset.
	return BelowIntervals(target, otherLE, -4*r)
}
