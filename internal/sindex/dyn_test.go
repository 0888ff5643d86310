package sindex

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// Incremental-insertion suite: a tree grown with Inserted must answer
// every query identically to a from-scratch bulk load over the same entry
// set — the invariant the mod store's live-ingest index maintenance is
// built on — and deriving a new tree must leave the old one untouched
// (readers hold snapshots).

// randSegmentEntries produces entries in the per-segment style the MOD
// store indexes with: several entries share one ID, each with its own box
// and time slice.
func randSegmentEntries(rng *rand.Rand, objects, segsPer int) []Entry {
	var es []Entry
	for id := 0; id < objects; id++ {
		t := rng.Float64() * 10
		for s := 0; s < segsPer; s++ {
			x := rng.Float64() * 40
			y := rng.Float64() * 40
			dt := 1 + rng.Float64()*10
			es = append(es, Entry{
				ID:  int64(id),
				Box: geom.AABB{MinX: x, MinY: y, MaxX: x + rng.Float64()*3, MaxY: y + rng.Float64()*3},
				T0:  t,
				T1:  t + dt,
			})
			t += dt
		}
	}
	return es
}

// perIDMinDist is the RTree.KNN oracle: per ID, the minimum box distance
// among entries valid at t.
func perIDMinDist(es []Entry, p geom.Point, t float64) map[int64]float64 {
	best := make(map[int64]float64)
	for _, e := range es {
		if e.T0 > t || e.T1 < t {
			continue
		}
		d := e.Box.MinDistTo(p)
		if b, ok := best[e.ID]; !ok || d < b {
			best[e.ID] = d
		}
	}
	return best
}

func checkRTreeAgainstEntries(t *testing.T, tag string, tree *RTree, es []Entry, rng *rand.Rand) {
	t.Helper()
	if tree.Len() != len(es) {
		t.Fatalf("%s: Len = %d, want %d", tag, tree.Len(), len(es))
	}
	for q := 0; q < 40; q++ {
		x, y := rng.Float64()*44-2, rng.Float64()*44-2
		box := geom.AABB{MinX: x, MinY: y, MaxX: x + rng.Float64()*15, MaxY: y + rng.Float64()*15}
		t0 := rng.Float64() * 40
		t1 := t0 + rng.Float64()*20
		got := append([]int64(nil), tree.SearchRange(box, t0, t1)...)
		slices.Sort(got)
		var want []int64
		for _, e := range es {
			if e.overlaps(box, t0, t1) {
				want = append(want, e.ID)
			}
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s q=%d: SearchRange got %d ids, want %d", tag, q, len(got), len(want))
		}

		p := geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
		tq := rng.Float64() * 40
		k := 1 + rng.Intn(12)
		nbs := tree.KNN(p, tq, k)
		oracle := perIDMinDist(es, p, tq)
		dists := make([]float64, 0, len(oracle))
		for _, d := range oracle {
			dists = append(dists, d)
		}
		slices.Sort(dists)
		wantLen := min(k, len(dists))
		if len(nbs) != wantLen {
			t.Fatalf("%s q=%d: KNN returned %d, want %d", tag, q, len(nbs), wantLen)
		}
		for i, nb := range nbs {
			if math.Abs(nb.Dist-dists[i]) > 1e-9 {
				t.Fatalf("%s q=%d result %d: dist %g, oracle %g", tag, q, i, nb.Dist, dists[i])
			}
			if d, ok := oracle[nb.ID]; !ok || math.Abs(nb.Dist-d) > 1e-9 {
				t.Fatalf("%s q=%d result %d: id %d dist %g, per-id oracle %g (ok=%v)",
					tag, q, i, nb.ID, nb.Dist, d, ok)
			}
		}
	}
}

func TestRTreeInsertedMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, split := range []struct{ base, extra int }{
		{0, 30}, {1, 64}, {200, 1}, {150, 150}, {40, 300},
	} {
		all := randSegmentEntries(rng, (split.base+split.extra+3)/4+1, 4)[:split.base+split.extra]
		base := NewRTree(all[:split.base], 8)
		grown := base.Inserted(all[split.base:]...)
		checkRTreeAgainstEntries(t, "grown", grown, all, rng)

		// One-at-a-time growth must agree too (exercises repeated splits).
		one := NewRTree(all[:split.base], 8)
		for _, e := range all[split.base:] {
			one = one.Inserted(e)
		}
		checkRTreeAgainstEntries(t, "one-by-one", one, all, rng)
	}
}

func TestRTreeInsertedLeavesReceiverIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	es := randSegmentEntries(rng, 80, 4)
	base := NewRTree(es[:200], 8)
	before := append([]int64(nil), base.SearchRange(geom.AABB{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}, 0, 60)...)
	slices.Sort(before)
	grown := base.Inserted(es[200:]...)
	if grown == base {
		t.Fatal("Inserted returned the receiver")
	}
	after := append([]int64(nil), base.SearchRange(geom.AABB{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}, 0, 60)...)
	slices.Sort(after)
	if !slices.Equal(before, after) {
		t.Fatal("Inserted mutated the receiver's answers")
	}
	if base.Len() != 200 || grown.Len() != len(es) {
		t.Fatalf("Len: base %d grown %d, want 200 and %d", base.Len(), grown.Len(), len(es))
	}
}

func TestRTreeInsertedFromEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	es := randSegmentEntries(rng, 30, 4)
	var tree *RTree
	tree = tree.Inserted(es...)
	checkRTreeAgainstEntries(t, "from-nil", tree, es, rng)
	empty := NewRTree(nil, 8)
	tree2 := empty.Inserted(es...)
	checkRTreeAgainstEntries(t, "from-empty", tree2, es, rng)
}
