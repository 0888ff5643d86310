package sindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func randEntries(rng *rand.Rand, n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		x := rng.Float64() * 40
		y := rng.Float64() * 40
		w := rng.Float64() * 2
		h := rng.Float64() * 2
		t0 := rng.Float64() * 60
		es[i] = Entry{
			ID:  int64(i),
			Box: geom.AABB{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h},
			T0:  t0,
			T1:  t0 + rng.Float64()*10,
		}
	}
	return es
}

// linearRange is the brute-force oracle.
func linearRange(es []Entry, box geom.AABB, t0, t1 float64) []int64 {
	var out []int64
	for _, e := range es {
		if e.overlaps(box, t0, t1) {
			out = append(out, e.ID)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func sortIDs(ids []int64) []int64 {
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func TestRTreeEmpty(t *testing.T) {
	tr := NewRTree(nil, 0)
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Errorf("empty tree: len=%d height=%d", tr.Len(), tr.Height())
	}
	if got := tr.SearchRange(geom.AABB{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0, 1); got != nil {
		t.Errorf("search on empty = %v", got)
	}
	if got := tr.KNN(geom.Point{}, 0, 3); got != nil {
		t.Errorf("knn on empty = %v", got)
	}
}

func TestRTreeSingle(t *testing.T) {
	e := Entry{ID: 42, Box: geom.AABB{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, T0: 0, T1: 10}
	tr := NewRTree([]Entry{e}, 4)
	if tr.Len() != 1 || tr.Height() != 1 {
		t.Errorf("len=%d height=%d", tr.Len(), tr.Height())
	}
	if got := tr.SearchRange(geom.AABB{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3}, 0, 5); len(got) != 1 || got[0] != 42 {
		t.Errorf("hit = %v", got)
	}
	if got := tr.SearchRange(geom.AABB{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}, 0, 5); got != nil {
		t.Errorf("spatial miss = %v", got)
	}
	if got := tr.SearchRange(geom.AABB{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3}, 20, 30); got != nil {
		t.Errorf("temporal miss = %v", got)
	}
}

func TestRTreeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 5, 50, 500, 3000} {
		es := randEntries(rng, n)
		tr := NewRTree(es, 8)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		for q := 0; q < 25; q++ {
			x := rng.Float64() * 40
			y := rng.Float64() * 40
			box := geom.AABB{MinX: x, MinY: y, MaxX: x + rng.Float64()*10, MaxY: y + rng.Float64()*10}
			t0 := rng.Float64() * 60
			t1 := t0 + rng.Float64()*20
			got := sortIDs(tr.SearchRange(box, t0, t1))
			want := linearRange(es, box, t0, t1)
			if len(got) != len(want) {
				t.Fatalf("n=%d q=%d: got %d ids, want %d", n, q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d q=%d: mismatch at %d", n, q, i)
				}
			}
		}
	}
}

func TestRTreeHeightGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := NewRTree(randEntries(rng, 10), 4)
	big := NewRTree(randEntries(rng, 1000), 4)
	if small.Height() < 1 || big.Height() <= small.Height() {
		t.Errorf("heights: small=%d big=%d", small.Height(), big.Height())
	}
}

func TestKNNMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	es := randEntries(rng, 800)
	tr := NewRTree(es, 8)
	for q := 0; q < 20; q++ {
		p := geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
		tAt := rng.Float64() * 60
		k := 1 + rng.Intn(10)
		got := tr.KNN(p, tAt, k)
		// Oracle: brute force over entries alive at tAt.
		type nd struct {
			id int64
			d  float64
		}
		var alive []nd
		for _, e := range es {
			if e.T0 <= tAt && tAt <= e.T1 {
				alive = append(alive, nd{e.ID, e.Box.MinDistTo(p)})
			}
		}
		sort.Slice(alive, func(a, b int) bool { return alive[a].d < alive[b].d })
		wantLen := k
		if len(alive) < k {
			wantLen = len(alive)
		}
		if len(got) != wantLen {
			t.Fatalf("q=%d: got %d results, want %d", q, len(got), wantLen)
		}
		for i, nb := range got {
			if math.Abs(nb.Dist-alive[i].d) > 1e-12 {
				t.Fatalf("q=%d: result %d dist %g, want %g", q, i, nb.Dist, alive[i].d)
			}
			// Distances must be nondecreasing.
			if i > 0 && nb.Dist < got[i-1].Dist {
				t.Fatalf("q=%d: distances not sorted", q)
			}
		}
	}
}

func TestKNNDedupesIDs(t *testing.T) {
	// Same ID with two segment boxes: only the nearest survives.
	es := []Entry{
		{ID: 1, Box: geom.AABBOf(geom.Point{X: 1, Y: 0}), T0: 0, T1: 10},
		{ID: 1, Box: geom.AABBOf(geom.Point{X: 5, Y: 0}), T0: 0, T1: 10},
		{ID: 2, Box: geom.AABBOf(geom.Point{X: 3, Y: 0}), T0: 0, T1: 10},
	}
	tr := NewRTree(es, 4)
	got := tr.KNN(geom.Point{}, 5, 5)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if got[0].ID != 1 || math.Abs(got[0].Dist-1) > 1e-12 {
		t.Errorf("first = %+v", got[0])
	}
	if got[1].ID != 2 {
		t.Errorf("second = %+v", got[1])
	}
}

func TestKNNZeroK(t *testing.T) {
	es := randEntries(rand.New(rand.NewSource(1)), 10)
	tr := NewRTree(es, 4)
	if got := tr.KNN(geom.Point{}, 5, 0); got != nil {
		t.Errorf("k=0: %v", got)
	}
}
