package envelope

import (
	"math"
	"sort"
	"testing"

	"repro/internal/numeric"
	"repro/internal/pool"
	"repro/internal/workload"
)

// kthOracle returns the j-th smallest (1-based) function value at time t.
func kthOracle(fns []*DistanceFunc, t float64, j int) float64 {
	vals := make([]float64, len(fns))
	for i, f := range fns {
		vals[i] = f.Value(t)
	}
	sort.Float64s(vals)
	return vals[j-1]
}

func TestKLevelEnvelopesMatchOracle(t *testing.T) {
	for _, segs := range []bool{false, true} {
		fns := buildRandomFuncs(t, 21, 25, segs)
		const k = 4
		levels, err := KLevelEnvelopes(nil, fns, 0, 60, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(levels) != k {
			t.Fatalf("got %d levels", len(levels))
		}
		for j := 1; j <= k; j++ {
			env := levels[j-1]
			for _, tm := range numeric.Linspace(0.01, 59.99, 499) {
				want := kthOracle(fns, tm, j)
				got := env.ValueAt(tm)
				if math.Abs(got-want) > 1e-6 {
					t.Fatalf("segs=%v level %d t=%g: env=%g oracle=%g", segs, j, tm, got, want)
				}
			}
		}
		// Levels are pointwise nondecreasing in j.
		for _, tm := range numeric.Linspace(0.01, 59.99, 199) {
			prev := -1.0
			for j := range levels {
				v := levels[j].ValueAt(tm)
				if v < prev-1e-9 {
					t.Fatalf("levels not sorted at t=%g level %d", tm, j+1)
				}
				prev = v
			}
		}
	}
}

func TestKLevelEnvelopesSmallSets(t *testing.T) {
	fns := buildRandomFuncs(t, 3, 2, false)
	// k larger than the number of functions: capped at len(fns).
	levels, err := KLevelEnvelopes(nil, fns, 0, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 2 {
		t.Fatalf("levels = %d, want 2", len(levels))
	}
	// Level 2 should be the max of the two functions everywhere.
	for _, tm := range numeric.Linspace(0.01, 59.99, 99) {
		want := math.Max(fns[0].Value(tm), fns[1].Value(tm))
		if got := levels[1].ValueAt(tm); math.Abs(got-want) > 1e-6 {
			t.Fatalf("t=%g: %g vs %g", tm, got, want)
		}
	}
}

func TestKLevelEnvelopesErrors(t *testing.T) {
	fns := buildRandomFuncs(t, 4, 3, false)
	if _, err := KLevelEnvelopes(nil, nil, 0, 60, 2); err == nil {
		t.Error("nil fns accepted")
	}
	if _, err := KLevelEnvelopes(nil, fns, 5, 5, 2); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := KLevelEnvelopes(nil, fns, 0, 60, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestKLevelFirstEqualsLowerEnvelope(t *testing.T) {
	fns := buildRandomFuncs(t, 8, 30, true)
	levels, err := KLevelEnvelopes(nil, fns, 0, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	le, err := LowerEnvelope(fns, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 1 || levels[0].Size() != le.Size() {
		t.Fatalf("level1 size %d vs %d", levels[0].Size(), le.Size())
	}
	for i := range le.Intervals {
		if levels[0].Intervals[i] != le.Intervals[i] {
			t.Fatalf("interval %d differs", i)
		}
	}
}

// TestKLevelEnvelopesPoolBitIdentical: the level-k intervals built on a
// pool are the serial ones bit for bit — every interval's ID and both
// endpoints — on the engine's generated fleets.
func TestKLevelEnvelopesPoolBitIdentical(t *testing.T) {
	pl := pool.New(4)
	for _, n := range []int{60, 600, 3000} {
		for _, seed := range []int64{7, 2025} {
			trs, err := workload.Generate(workload.DefaultConfig(seed), n)
			if err != nil {
				t.Fatal(err)
			}
			fns, err := BuildDistanceFuncs(trs, trs[0], 0, 60)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := KLevelEnvelopes(nil, fns, 0, 60, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 3} {
				pooled, err := KLevelEnvelopes(pl, fns, 0, 60, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(pooled) != min(k, len(serial)) {
					t.Fatalf("N=%d seed %d k=%d: %d levels on the pool, %d serial", n, seed, k, len(pooled), len(serial))
				}
				for j, lv := range pooled {
					want := serial[j].Intervals
					if len(lv.Intervals) != len(want) {
						t.Fatalf("N=%d seed %d k=%d level %d: %d intervals on the pool, %d serial", n, seed, k, j+1, len(lv.Intervals), len(want))
					}
					for i, iv := range lv.Intervals {
						w := want[i]
						if iv.ID != w.ID || math.Float64bits(iv.T0) != math.Float64bits(w.T0) || math.Float64bits(iv.T1) != math.Float64bits(w.T1) {
							t.Fatalf("N=%d seed %d k=%d level %d interval %d: %+v on the pool, %+v serial", n, seed, k, j+1, i, iv, w)
						}
					}
				}
			}
		}
	}
}
