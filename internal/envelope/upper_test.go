package envelope

import "testing"

func TestGuaranteedNNIntervals(t *testing.T) {
	q := stillTr(t, 100, 0, 0)
	near, _ := NewDistanceFunc(1, stillTr(t, 1, 2, 0), q, 0, 60) // d = 2
	far, _ := NewDistanceFunc(3, stillTr(t, 3, 11, 0), q, 0, 60) // d = 11
	fns := []*DistanceFunc{near, far}
	env, err := LowerEnvelope(fns, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	// r = 1: guaranteed iff 2 + 4 <= 11 → true for the whole window.
	ivs := GuaranteedNNIntervals(fns, 1, env, 1)
	if len(ivs) != 1 || ivs[0].T0 != 0 || ivs[0].T1 != 60 {
		t.Fatalf("near guaranteed = %v", ivs)
	}
	// The far object is never guaranteed.
	if ivs := GuaranteedNNIntervals(fns, 3, env, 1); len(ivs) != 0 {
		t.Fatalf("far guaranteed = %v", ivs)
	}
	// r = 3: 2 + 12 > 11 → no guarantee for anyone.
	if ivs := GuaranteedNNIntervals(fns, 1, env, 3); len(ivs) != 0 {
		t.Fatalf("wide-r guaranteed = %v", ivs)
	}
	// Unknown id and single-function edge cases.
	if ivs := GuaranteedNNIntervals(fns, 77, env, 1); ivs != nil {
		t.Fatalf("unknown id = %v", ivs)
	}
	if ivs := GuaranteedNNIntervals([]*DistanceFunc{near}, 1, env, 1); ivs != nil {
		t.Fatalf("single function = %v", ivs)
	}
}

// TestGuaranteedImpliesPossible: every guaranteed interval lies inside the
// possible-NN (4r zone) intervals.
func TestGuaranteedImpliesPossible(t *testing.T) {
	fns := buildRandomFuncs(t, 71, 30, true)
	env, err := LowerEnvelope(fns, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	const r = 0.5
	for _, f := range fns[:10] {
		guaranteed := GuaranteedNNIntervals(fns, f.ID, env, r)
		possible := BelowIntervals(f, env, 4*r)
		for _, g := range guaranteed {
			mid := 0.5 * (g.T0 + g.T1)
			ok := false
			for _, p := range possible {
				if mid >= p.T0-1e-6 && mid <= p.T1+1e-6 {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("oid %d: guaranteed interval %+v outside possible set %v", f.ID, g, possible)
			}
		}
	}
}
