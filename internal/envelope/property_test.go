package envelope

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

// buildTable builds the ID→function map the merge primitives need.
func buildTable(fns []*DistanceFunc) map[int64]*DistanceFunc {
	t := make(map[int64]*DistanceFunc, len(fns))
	for _, f := range fns {
		t[f.ID] = f
	}
	return t
}

// leAlg is LE_Alg's interval list over [tb, te], built on a pooled stack.
func leAlg(fns []*DistanceFunc, tb, te float64, table map[int64]*DistanceFunc) []Interval {
	s := getScratch()
	defer s.put()
	s.le(fns, tb, te, table)
	return slices.Clone(s.ivs)
}

// fullInterval wraps one function as a single-interval envelope.
func fullInterval(f *DistanceFunc, tb, te float64) []Interval {
	return []Interval{{ID: f.ID, T0: tb, T1: te}}
}

// envEqual compares two envelopes structurally within tolerance.
func envEqual(a, b []Interval, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID ||
			math.Abs(a[i].T0-b[i].T0) > tol || math.Abs(a[i].T1-b[i].T1) > tol {
			return false
		}
	}
	return true
}

// TestMergeLECommutative: Merge_LE(a, b) == Merge_LE(b, a) for random
// function subsets.
func TestMergeLECommutative(t *testing.T) {
	fns := buildRandomFuncs(t, 101, 24, true)
	table := buildTable(fns)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		na := 1 + rng.Intn(10)
		nb := 1 + rng.Intn(10)
		idx := rng.Perm(len(fns))
		subA := make([]*DistanceFunc, na)
		for i := range subA {
			subA[i] = fns[idx[i]]
		}
		subB := make([]*DistanceFunc, nb)
		for i := range subB {
			subB[i] = fns[idx[(na+i)%len(fns)]]
		}
		envA := leAlg(subA, 0, 60, table)
		envB := leAlg(subB, 0, 60, table)
		ab := MergeLE(nil, envA, envB, table)
		ba := MergeLE(nil, envB, envA, table)
		return envEqual(ab, ba, 1e-7)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(55))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestMergeLEAssociativeEffect: merging in any grouping yields the same
// envelope as the global divide-and-conquer construction (the correctness
// core of Algorithm 1's arbitrary split points).
func TestMergeLEAssociativeEffect(t *testing.T) {
	fns := buildRandomFuncs(t, 103, 15, true)
	table := buildTable(fns)
	global := leAlg(fns, 0, 60, table)

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random binary merge order: fold the singletons in a random
		// permutation with random pairing.
		parts := make([][]Interval, len(fns))
		for i, fn := range fns {
			parts[i] = fullInterval(fn, 0, 60)
		}
		rng.Shuffle(len(parts), func(a, b int) { parts[a], parts[b] = parts[b], parts[a] })
		for len(parts) > 1 {
			i := rng.Intn(len(parts) - 1)
			merged := MergeLE(nil, parts[i], parts[i+1], table)
			parts = append(parts[:i], append([][]Interval{merged}, parts[i+2:]...)...)
		}
		return envEqual(parts[0], global, 1e-7)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(77))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestMergeLEIdempotent: merging an envelope with itself is the identity.
func TestMergeLEIdempotent(t *testing.T) {
	fns := buildRandomFuncs(t, 107, 12, false)
	table := buildTable(fns)
	env := leAlg(fns, 0, 60, table)
	again := MergeLE(nil, env, env, table)
	if !envEqual(env, again, 1e-9) {
		t.Fatalf("self-merge changed the envelope:\n%v\n%v", env, again)
	}
}

// TestEnvelopeLowerBoundProperty: the envelope is a pointwise lower bound
// of every input function and coincides with at least one of them.
func TestEnvelopeLowerBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(seed%17+17)%17
		fns := buildRandomFuncs(t, seed, n, true)
		env, err := LowerEnvelope(fns, 0, 60)
		if err != nil {
			return false
		}
		for _, tm := range numeric.Linspace(0.01, 59.99, 97) {
			v := env.ValueAt(tm)
			hit := false
			for _, fn := range fns {
				fv := fn.Value(tm)
				if fv < v-1e-6 {
					return false // envelope above some function
				}
				if math.Abs(fv-v) <= 1e-6 {
					hit = true
				}
			}
			if !hit {
				return false // envelope tracks nobody
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(91))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
