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
	"errors"
	"math"
	"slices"
	"sync"

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
// for live ingest derive updated trees with Inserted, one call per batch,
// which shares all untouched nodes with the original (see dyn.go).
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
	// epoch is the Inserted call that created the node and may still edit
	// it (dyn.go); 0 for a bulk-loaded node, which nobody may.
	epoch uint64
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
		nd.t0 = min(nd.t0, e.T0)
		nd.t1 = max(nd.t1, e.T1)
	}
	for _, c := range nd.children {
		nd.box = nd.box.Union(c.box)
		nd.t0 = min(nd.t0, c.t0)
		nd.t1 = max(nd.t1, c.t1)
	}
}

// Len returns the number of entries in the tree.
func (t *RTree) Len() int { return t.count }

// Height returns the number of levels (0 for an empty tree).
func (t *RTree) Height() int { return t.height }

// Visit calls fn with the ID of every entry whose box intersects `box` and
// whose time interval intersects [t0, t1], in packing order, until fn
// returns false; it reports whether the walk ran to completion. An ID
// repeats once per matching entry (e.g. one per segment). The walk
// allocates nothing, so a caller can sweep a whole query window in one
// pass and keep its own per-ID state.
func (t *RTree) Visit(box geom.AABB, t0, t1 float64, fn func(id int64) bool) bool {
	return t.root == nil || t.root.visit(box, t0, t1, fn)
}

func (nd *node) visit(box geom.AABB, t0, t1 float64, fn func(id int64) bool) bool {
	if nd.t1 < t0 || nd.t0 > t1 || !nd.box.Intersects(box) {
		return true
	}
	for i := range nd.entries {
		if e := &nd.entries[i]; e.overlaps(box, t0, t1) && !fn(e.ID) {
			return false
		}
	}
	for _, c := range nd.children {
		if !c.visit(box, t0, t1, fn) {
			return false
		}
	}
	return true
}

// SearchRange collects Visit's IDs. IDs may repeat if the same ID was
// inserted with several entries; callers dedupe as needed.
func (t *RTree) SearchRange(box geom.AABB, t0, t1 float64) []int64 {
	var out []int64
	t.Visit(box, t0, t1, func(id int64) bool {
		out = append(out, id)
		return true
	})
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

// knnHeap is the best-first queue of the KNN search: a binary
// min-heap on dist whose push and pop sift exactly like container/heap's
// up and down. Equal distances are the common case — every box that
// contains the probe point is at distance 0 — so the sift order decides
// which of the tied entries come out first, and with it which neighbors a
// caller sees; it is kept so answers do not move. Unlike container/heap
// the items are never boxed into an interface, and the backing array is
// pooled across searches.
type knnHeap []knnItem

func (h *knnHeap) push(it knnItem) {
	q := append(*h, it)
	*h = q
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].dist < q[i].dist) {
			return
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *knnHeap) pop() knnItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].dist < q[j].dist {
			j = j2
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	it := q[n]
	*h = q[:n]
	return it
}

// reset empties the heap for pooling, dropping the tree pointers its
// backing array still holds so a pooled queue never pins a superseded tree.
func (h *knnHeap) reset() {
	clear((*h)[:cap(*h)])
	*h = (*h)[:0]
}

// appendNeighbor adds a popped entry to a KNN answer unless its ID is
// already there (answers are short — the prune probes ask for at most 64 —
// so a scan beats a set). The answer is allocated on the first hit, so a
// search that finds nothing returns nil.
func appendNeighbor(out []Neighbor, id int64, dist float64, sizeHint int) []Neighbor {
	for i := range out {
		if out[i].ID == id {
			return out
		}
	}
	if out == nil {
		out = make([]Neighbor, 0, sizeHint)
	}
	return append(out, Neighbor{ID: id, Dist: dist})
}

var rtreeHeaps = sync.Pool{New: func() any { return new(knnHeap) }}

// KNN returns up to k entries with the smallest box distance to p among
// entries whose time interval contains t, in ascending distance order
// (best-first search with a priority queue, after Hjaltason & Samet's
// distance browsing, which the paper cites as [10]). Duplicate IDs are
// collapsed, keeping the nearest.
func (t *RTree) KNN(p geom.Point, tAt float64, k int) []Neighbor {
	if t.root == nil || k <= 0 {
		return nil
	}
	q := rtreeHeaps.Get().(*knnHeap)
	defer func() {
		q.reset()
		rtreeHeaps.Put(q)
	}()
	q.push(knnItem{dist: t.root.box.MinDistTo(p), nd: t.root})
	var out []Neighbor
	for len(*q) > 0 && len(out) < k {
		it := q.pop()
		if it.entry != nil {
			out = appendNeighbor(out, it.entry.ID, it.dist, min(k, t.count))
			continue
		}
		nd := it.nd
		if nd.t1 < tAt || nd.t0 > tAt {
			continue
		}
		for i := range nd.entries {
			e := &nd.entries[i]
			if e.T0 <= tAt && tAt <= e.T1 {
				q.push(knnItem{dist: e.Box.MinDistTo(p), entry: e})
			}
		}
		for _, c := range nd.children {
			if c.t0 <= tAt && tAt <= c.t1 {
				q.push(knnItem{dist: c.box.MinDistTo(p), nd: c})
			}
		}
	}
	return out
}
