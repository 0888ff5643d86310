package envelope

import (
	"reflect"
	"testing"

	"repro/internal/numeric"
)

// without returns fns minus the function with the given ID.
func without(fns []*DistanceFunc, id int64) []*DistanceFunc {
	out := make([]*DistanceFunc, 0, len(fns))
	for _, f := range fns {
		if f.ID != id {
			out = append(out, f)
		}
	}
	return out
}

// TestStrictlyAboveKeepsLevels is the property the continuous layer's
// patch rule stands on: a function StrictlyAbove reports above the Level-k
// envelope of a set can be added to the set without moving levels 1..k —
// the rebuilt levels carry the same intervals, bit for bit — and the
// verdict agrees with a dense sampling of the gap wherever that is
// decisive.
func TestStrictlyAboveKeepsLevels(t *testing.T) {
	for _, segs := range []bool{false, true} {
		for _, k := range []int{1, 2, 3} {
			fns := buildRandomFuncs(t, int64(40+k), 40, segs)
			above, below := 0, 0
			for _, f := range fns {
				rest := without(fns, f.ID)
				levels, err := KLevelEnvelopes(nil, rest, 0, 60, k)
				if err != nil {
					t.Fatal(err)
				}
				level := levels[k-1]
				verdict := StrictlyAbove(f, level)
				minGap := 1e18
				for _, tm := range numeric.Linspace(0, 60, 4001) {
					if g := f.Value(tm) - level.ValueAt(tm); g < minGap {
						minGap = g
					}
				}
				if minGap < -1e-9 && verdict {
					t.Fatalf("segs=%v k=%d f=%d: above, yet the gap dips to %g", segs, k, f.ID, minGap)
				}
				if minGap > 1e-3 && !verdict {
					t.Fatalf("segs=%v k=%d f=%d: not above, yet the sampled gap stays >= %g", segs, k, f.ID, minGap)
				}
				if !verdict {
					below++
					continue
				}
				above++
				with, err := KLevelEnvelopes(nil, fns, 0, 60, k)
				if err != nil {
					t.Fatal(err)
				}
				for j := range levels {
					if !reflect.DeepEqual(with[j].Intervals, levels[j].Intervals) {
						t.Fatalf("segs=%v k=%d f=%d: level %d moved:\n with    %v\n without %v",
							segs, k, f.ID, j+1, with[j].Intervals, levels[j].Intervals)
					}
				}
			}
			if above == 0 || below == 0 {
				t.Fatalf("segs=%v k=%d: %d above, %d not — the fleet must offer both", segs, k, above, below)
			}
		}
	}
}

// TestStrictlyAboveTies: a function is not above an envelope it defines
// (it ties with it), nor above itself.
func TestStrictlyAboveTies(t *testing.T) {
	fns := buildRandomFuncs(t, 7, 20, true)
	env, err := LowerEnvelope(fns, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range env.Intervals {
		if StrictlyAbove(env.Func(iv.ID), env) {
			t.Fatalf("definer %d reported strictly above its own envelope", iv.ID)
		}
	}
	solo, err := LowerEnvelope(fns[:1], 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if StrictlyAbove(fns[0], solo) {
		t.Fatal("a function reported strictly above itself")
	}
}

// TestCompactAnswersAlike: a compacted envelope evaluates, scans and tests
// exactly like the original, pins only its defining functions, and
// compacting twice is free.
func TestCompactAnswersAlike(t *testing.T) {
	fns := buildRandomFuncs(t, 11, 30, true)
	env, err := LowerEnvelope(fns, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	c := env.Compact()
	if c.Compact() != c {
		t.Fatal("compacting a compact envelope made a copy")
	}
	for _, f := range fns {
		defines := false
		for _, iv := range env.Intervals {
			defines = defines || iv.ID == f.ID
		}
		if got := c.Func(f.ID) != nil; got != defines {
			t.Fatalf("compact envelope holds %d: %v, defines: %v", f.ID, got, defines)
		}
		if !reflect.DeepEqual(BelowIntervals(f, c, 2), BelowIntervals(f, env, 2)) {
			t.Fatalf("zone intervals of %d differ after compaction", f.ID)
		}
		if StrictlyAbove(f, c) != StrictlyAbove(f, env) {
			t.Fatalf("StrictlyAbove(%d) differs after compaction", f.ID)
		}
	}
	for _, tm := range numeric.Linspace(0, 60, 601) {
		if c.ValueAt(tm) != env.ValueAt(tm) || c.IDAt(tm) != env.IDAt(tm) {
			t.Fatalf("t=%g: compact envelope evaluates differently", tm)
		}
	}
}
