package sindex

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// refQueue is the container/heap queue the KNN search rode before the
// typed heap; refKNN is that search verbatim. It is the reference for tie
// order: which of several equidistant entries comes out
// first is decided by the heap's sift order, and callers (the prune probe
// phase) see the difference as different neighbors.
type refItem struct {
	dist float64
	nd   any
	id   int64
	leaf bool
}

type refQueue []refItem

func (q refQueue) Len() int            { return len(q) }
func (q refQueue) Less(a, b int) bool  { return q[a].dist < q[b].dist }
func (q refQueue) Swap(a, b int)       { q[a], q[b] = q[b], q[a] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

func refKNN(t *RTree, p geom.Point, tAt float64, k int) []Neighbor {
	if t.root == nil || k <= 0 {
		return nil
	}
	q := &refQueue{{dist: t.root.box.MinDistTo(p), nd: t.root}}
	heap.Init(q)
	seen := make(map[int64]bool)
	var out []Neighbor
	for q.Len() > 0 && len(out) < k {
		it := heap.Pop(q).(refItem)
		if it.leaf {
			if !seen[it.id] {
				seen[it.id] = true
				out = append(out, Neighbor{ID: it.id, Dist: it.dist})
			}
			continue
		}
		nd := it.nd.(*node)
		if nd.t1 < tAt || nd.t0 > tAt {
			continue
		}
		for _, e := range nd.entries {
			if e.T0 <= tAt && tAt <= e.T1 {
				heap.Push(q, refItem{dist: e.Box.MinDistTo(p), id: e.ID, leaf: true})
			}
		}
		for _, c := range nd.children {
			if c.t0 <= tAt && tAt <= c.t1 {
				heap.Push(q, refItem{dist: c.box.MinDistTo(p), nd: c})
			}
		}
	}
	return out
}

// TestKNNTieOrderMatchesContainerHeap: fat boxes that contain the probe
// point are all at distance 0, and lattice positions tie exactly at every
// other distance too; the typed heap must hand the ties out in
// container/heap's order, on bulk-loaded and on chained trees.
func TestKNNTieOrderMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var es []Entry
	for id := int64(0); id < 600; id++ {
		x, y := float64(rng.Intn(12)), float64(rng.Intn(12)) // lattice: exact ties
		w := float64(rng.Intn(7))                            // fat: many boxes contain a probe
		t0 := float64(rng.Intn(4)) * 10
		es = append(es, Entry{ID: id % 400, Box: geom.AABB{MinX: x, MinY: y, MaxX: x + w, MaxY: y + w}, T0: t0, T1: t0 + 20})
	}
	rt := NewRTree(es[:450], 8).Inserted(es[450:]...)
	ties := 0
	for n := 0; n < 400; n++ {
		p := geom.Point{X: float64(rng.Intn(14)), Y: float64(rng.Intn(14))}
		at, k := float64(rng.Intn(50)), 1+rng.Intn(64)
		got, want := rt.KNN(p, at, k), refKNN(rt, p, at, k)
		if !slices.Equal(got, want) {
			t.Fatalf("RTree.KNN(%v, %g, %d):\n got %v\nwant %v", p, at, k, got, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist == got[i-1].Dist {
				ties++
			}
		}
	}
	if ties < 1000 {
		t.Fatalf("only %d tied neighbors: the inputs do not exercise tie order", ties)
	}
}

// fleetTree indexes the benchmark's fleet — the paper's generator at
// N = 3000, one entry per 10-minute segment, boxes grown by r = 0.5 — the
// way mod.Store.BuildIndex does.
func fleetTree(tb testing.TB) (*RTree, []*trajectory.Trajectory) {
	trs, err := workload.Generate(workload.DefaultConfig(2009), 3000)
	if err != nil {
		tb.Fatal(err)
	}
	var es []Entry
	for _, tr := range trs {
		for i := 0; i < tr.NumSegments(); i++ {
			seg, t0, t1 := tr.Segment(i)
			es = append(es, Entry{ID: tr.OID, Box: geom.AABBOf(seg.A, seg.B).Expand(0.5), T0: t0, T1: t1})
		}
	}
	return NewRTree(es, 0), trs
}

var raceEnabled bool // set by race_test.go

// TestKNNAllocs: a search allocates its answer and nothing else — the
// queue is pooled and its items are never boxed.
func TestKNNAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	tree, trs := fleetTree(t)
	p := trs[0].At(25)
	tree.KNN(p, 25, 8) // warm the pool
	if allocs := testing.AllocsPerRun(200, func() { tree.KNN(p, 25, 8) }); allocs > 2 {
		t.Fatalf("RTree.KNN allocates %v times per search, want <= 2", allocs)
	}
}

// TestEntrySize: path-copying inserts copy whole entry arrays, and the
// heap holds one entry per live or superseded segment, so an entry that
// grows shows up in heap_live_mb and alloc_kb_per_op on every workload.
func TestEntrySize(t *testing.T) {
	if size := unsafe.Sizeof(Entry{}); size > 56 {
		t.Fatalf("sindex.Entry is %d bytes, want <= 56", size)
	}
}

// chainedFleetTree chains 20 revision-shaped batches onto fleetTree the
// way a store's ingest does between rebuilds: each batch revises 200
// random objects, a revision re-inserts the object's plan from a moving
// "now" onward, shifted a little, and the superseded entries stay.
func chainedFleetTree(tb testing.TB) (bulk, chained *RTree, trs []*trajectory.Trajectory) {
	bulk, trs = fleetTree(tb)
	rng := rand.New(rand.NewSource(2009))
	chained = bulk
	for b := 0; b < 20; b++ {
		now := 3 * float64(b)
		var batch []Entry
		for j := 0; j < 200; j++ {
			tr := trs[rng.Intn(len(trs))]
			dx, dy := rng.Float64()-0.5, rng.Float64()-0.5
			for i := 0; i < tr.NumSegments(); i++ {
				seg, t0, t1 := tr.Segment(i)
				if t1 <= now {
					continue
				}
				if t0 < now {
					seg.A, t0 = tr.At(now), now
				}
				batch = append(batch, Entry{ID: tr.OID, Box: geom.AABBOf(geom.Point{X: seg.A.X + dx, Y: seg.A.Y + dy}, geom.Point{X: seg.B.X + dx, Y: seg.B.Y + dy}).Expand(0.5), T0: t0, T1: t1})
			}
		}
		chained = chained.Inserted(batch...)
	}
	return bulk, chained, trs
}

// leavesSpanning counts t's leaves whose time span contains at, and all
// its leaves.
func leavesSpanning(t *RTree, at float64) (spanning, leaves int) {
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.children == nil {
			leaves++
			if nd.t0 <= at && at <= nd.t1 {
				spanning++
			}
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(t.root)
	return spanning, leaves
}

// TestPackingIsTimeAware: a KNN probe at one instant descends only into
// nodes whose time span contains it, so the share of leaves spanning an
// instant is the share of the tree a probe can reach. The fleet's
// segments tile [0, 60] and a sixth of them is alive at t = 25; a bulk
// load that packs on space alone puts every leaf across t = 25, and a
// chained insert that grows boxes by area alone drags a time-packed tree
// back there within 20 batches.
func TestPackingIsTimeAware(t *testing.T) {
	bulk, chained, _ := chainedFleetTree(t)
	for _, c := range []struct {
		name string
		tree *RTree
	}{{"bulk", bulk}, {"chained", chained}} {
		spanning, leaves := leavesSpanning(c.tree, 25)
		t.Logf("%s: %d of %d leaves (%.1f %%) span t = 25", c.name, spanning, leaves, 100*float64(spanning)/float64(leaves))
		if 10*spanning > 4*leaves {
			t.Errorf("%s: %d of %d leaves span t = 25, want at most 40 %%", c.name, spanning, leaves)
		}
	}
}

// BenchmarkKNN is the probe phase's unit of work: the 8 nearest segment
// entries to a fleet member's position, mid-window, in the bulk-loaded
// fleet tree and in the same tree after chainedFleetTree's 20 revision
// batches.
func BenchmarkKNN(b *testing.B) {
	bulk, chained, trs := chainedFleetTree(b)
	for _, bc := range []struct {
		name string
		tree *RTree
	}{{"bulk", bulk}, {"chained", chained}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.tree.KNN(trs[i%len(trs)].At(25), 25, 8)
			}
		})
	}
}
