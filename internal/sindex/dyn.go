package sindex

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/geom"
)

// This file adds incremental (persistent, copy-on-write) insertion to the
// bulk-loaded tree. A tree is immutable once it has been handed out — the
// query path holds bare pointers into it from many goroutines — so a live
// ingest never changes a node a reader can reach. Inserted instead returns
// a NEW tree that shares every untouched node with the original; readers of
// the old tree keep a consistent snapshot, and the store swaps its cached
// pointer under its index mutex. A whole batch goes in one call, and the
// call pays for each node on its insertion paths once. An internal node is
// copied the first time the call touches it and edited in place on every
// later touch. A leaf's copy takes the call's bounds at once but keeps
// sharing its old entries: the entries the call adds to it wait in the
// call's scratch, and the leaf's entry list is laid out once, at its final
// length — when the next entry would overflow it (it then splits as it
// always did) or when the call ends. Packing quality degrades slowly
// compared to a fresh STR build, but a batch costs what its own entries
// touch instead of the O(n log n) rebuild the cache would otherwise pay on
// every mutation. What the chain cannot do is delete: an entry a caller has
// superseded stays in every later tree until the caller rebuilds (see the
// package comment).

// insertEpoch hands out epochs, a range per RTree.Inserted call. A node
// records an epoch (0: bulk-loaded), and a call may edit exactly the nodes
// whose epoch lies in its own range: no other call can hold those numbers,
// and — unlike a pointer to the tree being built — a number keeps nothing
// alive. The range's first epoch marks the nodes the call copied; each
// leaf with entries waiting (see batch) carries one of the rest, which
// names its chain.
var insertEpoch atomic.Uint64

// Inserted returns a tree containing the receiver's entries plus es, as if
// they had been inserted one at a time in order. The receiver, and every
// tree derived from it earlier, is not modified; unaffected subtrees are
// shared. A nil or empty receiver bulk-loads a copy of es instead.
func (t *RTree) Inserted(es ...Entry) *RTree {
	if len(es) == 0 {
		return t
	}
	if t == nil || t.root == nil {
		fan := DefaultFanout
		if t != nil && t.fanout > 0 {
			fan = t.fanout
		}
		return NewRTree(slices.Clone(es), fan)
	}
	nt := &RTree{root: t.root, height: t.height, count: t.count + len(es), fanout: t.fanout}
	b := newBatch(es, nt.fanout)
	for i := range es {
		n1, n2 := b.insert(nt.root, int32(i))
		if n2 != nil {
			n1 = &node{children: []*node{n1, n2}, epoch: b.epoch}
			n1.recompute()
			nt.height++
		}
		nt.root = n1
	}
	b.finish()
	return nt
}

// batch is one Inserted call's working state. A leaf the call owns lists
// the entries it has taken since its entry list was last laid out as a
// chain of indexes into es, newest first: leaves[k] is the chain of the
// leaf whose epoch is epoch+1+k, and next[i] is the index before i.
type batch struct {
	es     []Entry
	fanout int
	epoch  uint64
	leaves []pendingLeaf
	next   []int32
}

// pendingLeaf is a leaf's chain: its newest entry head and its length n.
type pendingLeaf struct {
	nd      *node
	head, n int32
}

// newBatch reserves the call's epochs: the first, and one per entry, since
// each entry starts at most one chain. leaves never outgrows its capacity.
func newBatch(es []Entry, fanout int) batch {
	span := uint64(len(es))
	return batch{
		es: es, fanout: fanout, epoch: insertEpoch.Add(span+1) - span,
		leaves: make([]pendingLeaf, 0, len(es)),
		next:   make([]int32, len(es)),
	}
}

// owns reports whether the call may edit nd: its epoch is in the call's
// range (an older one wraps past it).
func (b *batch) owns(nd *node) bool { return nd.epoch-b.epoch <= uint64(len(b.es)) }

// finish lays out every leaf that still has entries waiting.
func (b *batch) finish() {
	for i := range b.leaves {
		if l := &b.leaves[i]; l.n > 0 {
			l.nd.entries = b.layOut(l)
		}
	}
}

// pend adds es[i] to leaf nd's chain, giving the leaf a chain the first
// time, and returns the chain.
func (b *batch) pend(nd *node, i int32) *pendingLeaf {
	if nd.epoch == b.epoch {
		b.leaves = append(b.leaves, pendingLeaf{nd: nd})
		nd.epoch += uint64(len(b.leaves))
	}
	l := &b.leaves[nd.epoch-b.epoch-1]
	b.next[i], l.head = l.head, i
	l.n++
	return l
}

// layOut returns l's leaf's entries followed by its chain's, oldest
// first, in one allocation of exactly that length, and empties the chain.
func (b *batch) layOut(l *pendingLeaf) []Entry {
	old := len(l.nd.entries)
	ents := make([]Entry, old+int(l.n))
	copy(ents, l.nd.entries)
	for i, k := l.head, len(ents)-1; k >= old; i, k = b.next[i], k-1 {
		ents[k] = b.es[i]
	}
	l.n = 0
	return ents
}

// owned returns nd if the call may edit it, and otherwise a copy it may:
// an internal node's children with room for the one child a split below
// may add, a leaf's entries shared until the call lays them out.
func (b *batch) owned(nd *node) *node {
	if b.owns(nd) {
		return nd
	}
	c := &node{box: nd.box, t0: nd.t0, t1: nd.t1, epoch: b.epoch}
	if nd.children == nil {
		c.entries = nd.entries[:len(nd.entries):len(nd.entries)]
	} else {
		c.children = append(make([]*node, 0, len(nd.children)+1), nd.children...)
	}
	return c
}

// appendExact is append that grows a full slice by exactly one element:
// the nodes outlive the call by a long time, and the slack append's
// doubling leaves behind would be kept for as long.
func appendExact[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, len(s)+1), s...)
	}
	return append(s, v)
}

// insert adds es[i] below nd. It returns the call's own version of nd — nd
// itself when the call created it — and, when the node overflowed, the
// second half of its split. The halves take their bounds from their
// members; a node that does not split grows its bounds by the entry, which
// gives the same bits.
func (b *batch) insert(nd *node, i int32) (*node, *node) {
	nd = b.owned(nd)
	e := &b.es[i]
	var half *node
	if nd.children == nil {
		if l := b.pend(nd, i); len(nd.entries)+int(l.n) > b.fanout {
			x, y := splitSlice(b.layOut(l), func(en Entry) geom.Point { return en.Box.Center() })
			nd.entries, half = x, &node{entries: y, epoch: b.epoch}
		}
	} else {
		best := chooseSubtree(nd.children, e)
		c1, c2 := b.insert(nd.children[best], i)
		nd.children[best] = c1
		if c2 != nil {
			nd.children = appendExact(nd.children, c2)
		}
		if len(nd.children) > b.fanout {
			x, y := splitSlice(nd.children, func(c *node) geom.Point { return c.box.Center() })
			nd.children, half = x, &node{children: y, epoch: b.epoch}
		}
	}
	if half != nil {
		nd.recompute()
		half.recompute()
		return nd, half
	}
	nd.box = nd.box.Union(e.Box)
	nd.t0, nd.t1 = min(nd.t0, e.T0), max(nd.t1, e.T1)
	return nd, nil
}

// chooseSubtree picks the child whose space-time volume (box area × time
// span) grows least to admit e — Guttman's ChooseLeaf criterion with time
// as a third axis, the smaller volume breaking ties. Growth in time costs
// like growth in space, so an entry joins the subtree of its own time slab
// and a chained tree keeps the bulk load's time coherence.
func chooseSubtree(children []*node, e *Entry) int {
	best, bestGrow, bestVol := 0, math.Inf(1), math.Inf(1)
	for i, c := range children {
		vol := c.box.Area() * (c.t1 - c.t0)
		grow := c.box.Union(e.Box).Area()*(max(c.t1, e.T1)-min(c.t0, e.T0)) - vol
		if grow < bestGrow || (grow == bestGrow && vol < bestVol) {
			best, bestGrow, bestVol = i, grow, vol
		}
	}
	return best
}

// splitSlice halves an overflowing slice along the spatial axis with the
// larger center spread — cheap, and it keeps both halves spatially
// coherent. It ignores time: the members of an overflowing node were
// chosen for it by space-time growth, so they already share its slab.
func splitSlice[T any](items []T, center func(T) geom.Point) ([]T, []T) {
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, it := range items {
		c := center(it)
		minX, maxX = math.Min(minX, c.X), math.Max(maxX, c.X)
		minY, maxY = math.Min(minY, c.Y), math.Max(maxY, c.Y)
	}
	byY := maxY-minY > maxX-minX
	slices.SortStableFunc(items, func(a, b T) int {
		ca, cb := center(a), center(b)
		if byY {
			return cmp.Compare(ca.Y, cb.Y)
		}
		return cmp.Compare(ca.X, cb.X)
	})
	mid := len(items) / 2
	return items[:mid:mid], items[mid:]
}
