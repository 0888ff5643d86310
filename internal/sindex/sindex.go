// Package sindex provides the spatial-index substrate for the MOD store:
// an STR (Sort-Tile-Recursive) bulk-loaded R-tree over spatio-temporal
// entries (a 2D box plus a time interval), supporting range search over
// (box, time window) and best-first k-nearest-neighbor search by box
// distance at a time instant.
//
// The paper itself does not prescribe an index (its algorithms operate on a
// candidate set), but a MOD serving the paper's Category 3/4 queries needs
// one to collect the trajectories relevant to a query window; this package
// is that substrate.
package sindex

import (
	"cmp"
	"container/heap"
	"errors"
	"math"
	"slices"

	"repro/internal/geom"
)

// DefaultFanout is the R-tree node capacity used when NewRTree receives a
// non-positive fanout.
const DefaultFanout = 16

// ErrEmpty is returned by queries on an index with no entries.
var ErrEmpty = errors.New("sindex: empty index")

// Entry is one indexed item: an opaque ID (typically a trajectory OID or a
// segment handle), its spatial bounding box, and its time interval.
type Entry struct {
	ID     int64
	Box    geom.AABB
	T0, T1 float64
}

// overlaps reports whether the entry intersects the query window.
func (e Entry) overlaps(box geom.AABB, t0, t1 float64) bool {
	return e.T1 >= t0 && e.T0 <= t1 && e.Box.Intersects(box)
}

// RTree is an immutable STR-packed R-tree. Build once with NewRTree; for
// bulk-dynamic workloads rebuild (bulk loading is fast: O(n log n)), and
// for append-heavy live ingest derive updated trees with Inserted, which
// shares all untouched nodes with the original (see dyn.go).
type RTree struct {
	root   *node
	height int
	count  int
	fanout int
}

type node struct {
	box      geom.AABB
	t0, t1   float64
	children []*node // nil for leaves
	entries  []Entry // nil for internal nodes
}

// NewRTree bulk-loads the entries with the STR algorithm. The entries
// slice is copied. fanout <= 0 selects DefaultFanout.
func NewRTree(entries []Entry, fanout int) *RTree {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	t := &RTree{count: len(entries), fanout: fanout}
	if len(entries) == 0 {
		return t
	}
	es := append([]Entry(nil), entries...)
	leaves := strPack(es, fanout)
	level := leaves
	height := 1
	for len(level) > 1 {
		level = packNodes(level, fanout)
		height++
	}
	t.root = level[0]
	t.height = height
	return t
}

// strPack tiles entries into leaves: sort by center X, slice into vertical
// strips of sqrt(n/fanout) · fanout entries, sort each strip by center Y,
// and cut runs of fanout.
func strPack(es []Entry, fanout int) []*node {
	n := len(es)
	leafCount := (n + fanout - 1) / fanout
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sliceSize := sliceCount * fanout
	slices.SortFunc(es, func(a, b Entry) int {
		return cmp.Compare(a.Box.Center().X, b.Box.Center().X)
	})
	var leaves []*node
	for s := 0; s < n; s += sliceSize {
		end := s + sliceSize
		if end > n {
			end = n
		}
		strip := es[s:end]
		slices.SortFunc(strip, func(a, b Entry) int {
			return cmp.Compare(a.Box.Center().Y, b.Box.Center().Y)
		})
		for i := 0; i < len(strip); i += fanout {
			j := i + fanout
			if j > len(strip) {
				j = len(strip)
			}
			leaf := &node{entries: strip[i:j:j]}
			leaf.recompute()
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func packNodes(level []*node, fanout int) []*node {
	slices.SortFunc(level, func(a, b *node) int {
		return cmp.Compare(a.box.Center().X, b.box.Center().X)
	})
	n := len(level)
	parentCount := (n + fanout - 1) / fanout
	sliceCount := int(math.Ceil(math.Sqrt(float64(parentCount))))
	sliceSize := sliceCount * fanout
	var parents []*node
	for s := 0; s < n; s += sliceSize {
		end := s + sliceSize
		if end > n {
			end = n
		}
		strip := level[s:end]
		slices.SortFunc(strip, func(a, b *node) int {
			return cmp.Compare(a.box.Center().Y, b.box.Center().Y)
		})
		for i := 0; i < len(strip); i += fanout {
			j := i + fanout
			if j > len(strip) {
				j = len(strip)
			}
			p := &node{children: strip[i:j:j]}
			p.recompute()
			parents = append(parents, p)
		}
	}
	return parents
}

func (nd *node) recompute() {
	nd.box = geom.EmptyAABB()
	nd.t0, nd.t1 = math.Inf(1), math.Inf(-1)
	for _, e := range nd.entries {
		nd.box = nd.box.Union(e.Box)
		nd.t0 = math.Min(nd.t0, e.T0)
		nd.t1 = math.Max(nd.t1, e.T1)
	}
	for _, c := range nd.children {
		nd.box = nd.box.Union(c.box)
		nd.t0 = math.Min(nd.t0, c.t0)
		nd.t1 = math.Max(nd.t1, c.t1)
	}
}

// Len returns the number of entries in the tree.
func (t *RTree) Len() int { return t.count }

// Height returns the number of levels (0 for an empty tree).
func (t *RTree) Height() int { return t.height }

// SearchRange returns the IDs of all entries whose box intersects `box`
// and whose time interval intersects [t0, t1]. IDs may repeat if the same
// ID was inserted with several entries (e.g. one per segment); callers
// dedupe as needed.
func (t *RTree) SearchRange(box geom.AABB, t0, t1 float64) []int64 {
	if t.root == nil {
		return nil
	}
	var out []int64
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.t1 < t0 || nd.t0 > t1 || !nd.box.Intersects(box) {
			return
		}
		for _, e := range nd.entries {
			if e.overlaps(box, t0, t1) {
				out = append(out, e.ID)
			}
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// Neighbor is one kNN result: an entry ID and its box distance from the
// query point.
type Neighbor struct {
	ID   int64
	Dist float64
}

// knnItem is a best-first queue element: either a node or a concrete entry.
type knnItem struct {
	dist  float64
	nd    *node
	entry *Entry
}

type knnQueue []knnItem

func (q knnQueue) Len() int            { return len(q) }
func (q knnQueue) Less(a, b int) bool  { return q[a].dist < q[b].dist }
func (q knnQueue) Swap(a, b int)       { q[a], q[b] = q[b], q[a] }
func (q *knnQueue) Push(x interface{}) { *q = append(*q, x.(knnItem)) }
func (q *knnQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// KNN returns up to k entries with the smallest box distance to p among
// entries whose time interval contains t, in ascending distance order
// (best-first search with a priority queue, after Hjaltason & Samet's
// distance browsing, which the paper cites as [10]). Duplicate IDs are
// collapsed, keeping the nearest.
func (t *RTree) KNN(p geom.Point, tAt float64, k int) []Neighbor {
	if t.root == nil || k <= 0 {
		return nil
	}
	q := &knnQueue{{dist: t.root.box.MinDistTo(p), nd: t.root}}
	heap.Init(q)
	seen := make(map[int64]bool)
	var out []Neighbor
	for q.Len() > 0 && len(out) < k {
		it := heap.Pop(q).(knnItem)
		switch {
		case it.entry != nil:
			if !seen[it.entry.ID] {
				seen[it.entry.ID] = true
				out = append(out, Neighbor{ID: it.entry.ID, Dist: it.dist})
			}
		default:
			nd := it.nd
			if nd.t1 < tAt || nd.t0 > tAt {
				continue
			}
			for i := range nd.entries {
				e := &nd.entries[i]
				if e.T0 <= tAt && tAt <= e.T1 {
					heap.Push(q, knnItem{dist: e.Box.MinDistTo(p), entry: e})
				}
			}
			for _, c := range nd.children {
				if c.t0 <= tAt && tAt <= c.t1 {
					heap.Push(q, knnItem{dist: c.box.MinDistTo(p), nd: c})
				}
			}
		}
	}
	return out
}
