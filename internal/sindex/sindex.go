// Package sindex provides the spatial-index substrate for the MOD store:
// an R-tree over spatio-temporal entries (a 2D box plus a time interval),
// bulk-loaded with 3-D Sort-Tile-Recursive packing — time slabs first,
// then X strips, then Y runs — supporting range search over (box, time
// window) and best-first k-nearest-neighbor search by box distance at a
// time instant.
//
// The paper itself does not prescribe an index (its algorithms operate on a
// candidate set), but a MOD serving the paper's Category 3/4 queries needs
// one to collect the trajectories relevant to a query window; this package
// is that substrate. Time is a packing axis because the queries are: a
// KNN probe asks about one instant, and a fleet's segments tile the whole
// horizon, so a node packed on space alone spans every instant and holds
// mostly entries that are not alive at the one asked about. A node packed
// in a time slab spans a slice of the horizon, and the search skips it
// at every other instant.
//
// Trees are immutable. Live ingest derives a new tree per update batch
// with Inserted (dyn.go), which adds entries but never removes one, and
// places each entry where it grows the space-time volume least, so a
// chained tree stays in the slabs of its entries' times. An owner whose
// updates supersede entries rebuilds with NewRTree to shed them: a bulk
// load that sorts packed integer keys and moves each entry once per level,
// cheap enough to run whenever the dead entries reach a modest share of
// the live ones (the store's rule is a quarter).
package sindex

import (
	"math"
	"sync"

	"repro/internal/geom"
)

// DefaultFanout is the R-tree node capacity used when NewRTree receives a
// non-positive fanout.
const DefaultFanout = 16

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

// RTree is an immutable STR-packed R-tree. Build with NewRTree; for live
// ingest derive updated trees with Inserted, one call per batch, which
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
	// epoch is from the range of the Inserted call that created the node
	// and may still edit it (dyn.go); 0 for a bulk-loaded node, which
	// nobody may.
	epoch uint64
}

// NewRTree bulk-loads the entries with 3-D STR packing (see strLevel),
// time center (T0+T1)/2 first, then box center X, then Y, on every level.
// It takes ownership of the entries slice: the slice is reordered in place
// and the leaves keep sub-slices of it, so the caller must not use it
// afterwards. Equal centers keep their input order, so one input order
// always packs one tree. fanout <= 0 selects DefaultFanout.
func NewRTree(entries []Entry, fanout int) *RTree {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	t := &RTree{count: len(entries), fanout: fanout}
	if len(entries) == 0 {
		return t
	}
	keys := make([]uint64, 2*len(entries))
	level := strLevel(entries, keys, fanout,
		func(e *Entry) (geom.Point, float64) { return e.Box.Center(), 0.5 * (e.T0 + e.T1) },
		func(nd *node, es []Entry) { nd.entries = es })
	height := 1
	for len(level) > 1 {
		level = strLevel(level, keys, fanout,
			func(c **node) (geom.Point, float64) { return (*c).box.Center(), 0.5 * ((*c).t0 + (*c).t1) },
			func(nd *node, cs []*node) { nd.children = cs })
		height++
	}
	t.root = level[0]
	t.height = height
	return t
}

// strKey packs one item's sort key in a packing pass into a single
// integer: the center coordinate c, rounded to float32, mapped to a uint32
// that orders like it and cut to its top 24 bits (sign, exponent and 15
// mantissa bits, a relative step of 2^-15), above the item's position i.
// The packing needs no finer order than that, and sorting those 24 bits
// alone is enough: the position only rides along.
func strKey(c float64, i int) uint64 {
	b := math.Float32bits(float32(c))
	if b>>31 != 0 {
		b = ^b // negative: larger magnitudes sort first
	} else {
		b |= 1 << 31
	}
	return uint64(b>>8)<<40 | uint64(uint32(i))
}

// strPos is the item position strKey packed into k.
func strPos(k uint64) int { return int(uint32(k)) }

// strLevel packs one level of the tree with 3-D STR over (time, X, Y):
// for the ceil(n/fanout) nodes it will make, it sorts the items by time
// center into ceil(cbrt(nodes)) slabs of equal node counts, each slab by
// center X into ceil(sqrt(its nodes)) strips, and each strip by center Y,
// and cuts runs of fanout, each run the members of one new node (set
// attaches them). Slabs and strips hold whole multiples of fanout items,
// so only the very last run is short. The sorts are stable, so equal
// coordinates keep their order: items their position, a slab's members
// their time order, a strip's their X order. They move keys, not items —
// keys is scratch of at least 2·len(items), and a level holds fewer than
// 2^32 - 1 items — and the items are permuted into packing order once at
// the end. The nodes come from one allocation.
func strLevel[T any](items []T, keys []uint64, fanout int, center func(*T) (geom.Point, float64), set func(*node, []T)) []*node {
	n := len(items)
	keys, buf := keys[:n], keys[n:2*n]
	for i := range items {
		_, t := center(&items[i])
		keys[i] = strKey(t, i)
	}
	radixSort(keys, buf)
	count := ceilDiv(n, fanout)
	slabSize := ceilDiv(count, int(math.Ceil(math.Cbrt(float64(count))))) * fanout
	for s := 0; s < n; s += slabSize {
		end := min(s+slabSize, n)
		slab := keys[s:end]
		for j, k := range slab {
			c, _ := center(&items[strPos(k)])
			slab[j] = strKey(c.X, strPos(k))
		}
		radixSort(slab, buf[s:end])
		stripSize := int(math.Ceil(math.Sqrt(float64(ceilDiv(len(slab), fanout))))) * fanout
		for r := s; r < end; r += stripSize {
			rend := min(r+stripSize, end)
			strip := keys[r:rend]
			for j, k := range strip {
				c, _ := center(&items[strPos(k)])
				strip[j] = strKey(c.Y, strPos(k))
			}
			radixSort(strip, buf[r:rend])
		}
	}
	permute(items, keys)
	nodes := make([]node, count)
	out := make([]*node, count)
	for i := range out {
		lo := i * fanout
		hi := min(lo+fanout, n)
		nd := &nodes[i]
		set(nd, items[lo:hi:hi])
		nd.recompute()
		out[i] = nd
	}
	return out
}

// ceilDiv is ⌈a/b⌉ for a >= 0, b > 0.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// radixSort sorts keys stably by their top 24 bits (strKey's
// coordinate): a least-significant-digit radix sort over those three
// bytes through buf, of len(keys). A byte every key shares costs no pass.
// The whole 3-D load of a 36 000-entry fleet runs in 4.1–4.7 ms on it,
// against 10.2–12.1 ms with slices.Sort on the same keys (2-core x86-64).
func radixSort(keys, buf []uint64) {
	if len(keys) < 2 {
		return
	}
	var counts [3][256]int
	for _, k := range keys {
		counts[0][byte(k>>40)]++
		counts[1][byte(k>>48)]++
		counts[2][byte(k>>56)]++
	}
	src, dst := keys, buf
	for d := range counts {
		c, shift := &counts[d], 40+8*d
		if c[byte(src[0]>>shift)] == len(src) {
			continue
		}
		off := 0
		for b, m := range c {
			c[b], off = off, off+m
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// placed marks a spent key in permute: no position packs to it, because
// a level has fewer than 2^32 - 1 items.
const placed uint32 = math.MaxUint32

// permute reorders items so that position j holds the item keys[j]
// names, in place: it follows each cycle of the permutation once and
// marks the keys it has placed, which leaves keys spent.
func permute[T any](items []T, keys []uint64) {
	for start := range keys {
		if uint32(keys[start]) == placed {
			continue
		}
		tmp := items[start]
		j := start
		for {
			src := strPos(keys[j])
			keys[j] = uint64(placed)
			if src == start {
				items[j] = tmp
				break
			}
			items[j] = items[src]
			j = src
		}
	}
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
