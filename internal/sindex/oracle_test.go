package sindex

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// This file deepens the brute-force-oracle coverage of TPRTree.KNNAt
// (staggered validity windows, k exceeding the alive count).

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

// randStaggeredMoving produces moving entries whose validity windows only
// cover part of the horizon, so time filtering decides KNN answers.
func randStaggeredMoving(rng *rand.Rand, n int) []MovingEntry {
	es := make([]MovingEntry, n)
	for i := range es {
		t0 := rng.Float64() * 50
		es[i] = MovingEntry{
			ID: int64(i),
			P:  geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40},
			V:  geom.Vec{X: (rng.Float64() - 0.5) * 2, Y: (rng.Float64() - 0.5) * 2},
			T0: t0,
			T1: t0 + rng.Float64()*15,
		}
	}
	return es
}

func TestTPRKNNAtValidityOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for _, n := range []int{1, 25, 400} {
		es := randStaggeredMoving(rng, n)
		tr := NewTPRTree(es, 0, 8)
		for q := 0; q < 30; q++ {
			tq := rng.Float64() * 65
			p := geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
			k := 1 + rng.Intn(2*n)
			got := tr.KNNAt(p, tq, k)
			var alive []float64
			for _, e := range es {
				if tq >= e.T0 && tq <= e.T1 {
					alive = append(alive, e.At(tq).Dist(p))
				}
			}
			slices.Sort(alive)
			wantLen := min(k, len(alive))
			if len(got) != wantLen {
				t.Fatalf("n=%d q=%d: got %d results, want %d (alive %d, k %d)",
					n, q, len(got), wantLen, len(alive), k)
			}
			for i, nb := range got {
				if math.Abs(nb.Dist-alive[i]) > 1e-9 {
					t.Fatalf("n=%d q=%d result %d: dist %g, oracle %g", n, q, i, nb.Dist, alive[i])
				}
				if i > 0 && nb.Dist < got[i-1].Dist {
					t.Fatalf("n=%d q=%d: distances not nondecreasing", n, q)
				}
				// The reported entry must actually be valid at tq.
				e := es[nb.ID]
				if tq < e.T0 || tq > e.T1 {
					t.Fatalf("n=%d q=%d: entry %d invalid at %g", n, q, nb.ID, tq)
				}
			}
		}
	}
}

func TestTPRKNNAtOutsideHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	es := randStaggeredMoving(rng, 50)
	tr := NewTPRTree(es, 0, 8)
	if got := tr.KNNAt(geom.Point{X: 20, Y: 20}, 1e6, 5); got != nil {
		t.Fatalf("query beyond every validity window returned %v", got)
	}
}
