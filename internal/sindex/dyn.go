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
// pointer under its index mutex. A whole batch goes in one call: a node is
// copied the first time the call touches it and edited in place on every
// later touch, so a batch pays for each node on its insertion paths once.
// Packing quality degrades slowly compared to a fresh STR build, but a
// batch costs what its own entries touch instead of the O(n log n) rebuild
// the cache would otherwise pay on every mutation. What the chain cannot
// do is delete: an entry a caller has superseded stays in every later
// tree until the caller rebuilds (see the package comment).

// insertEpoch numbers the RTree.Inserted calls. A node records the epoch of
// the call that created it (0: bulk-loaded), and a call may edit exactly the
// nodes that carry its own epoch: no other call can hold that number, and —
// unlike a pointer to the tree being built — the number keeps nothing alive.
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
	epoch := insertEpoch.Add(1)
	for i := range es {
		n1, n2 := insertNode(nt.root, &es[i], nt.fanout, epoch)
		if n2 != nil {
			n1 = &node{children: []*node{n1, n2}, epoch: epoch}
			n1.recompute()
			nt.height++
		}
		nt.root = n1
	}
	return nt
}

// owned returns nd if the call numbered epoch created it, and otherwise a
// copy that call may edit, with room for the one member it is about to add.
func (nd *node) owned(epoch uint64) *node {
	if nd.epoch == epoch {
		return nd
	}
	c := &node{box: nd.box, t0: nd.t0, t1: nd.t1, epoch: epoch}
	if nd.children == nil {
		c.entries = append(make([]Entry, 0, len(nd.entries)+1), nd.entries...)
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

// insertNode adds e below nd on behalf of the Inserted call numbered epoch.
// It returns that call's own version of nd — nd itself when the call
// created it — and, when the node overflowed, the second half of its split.
// The halves take their bounds from their members; a node that does not
// split grows its bounds by the entry, which gives the same bits.
func insertNode(nd *node, e *Entry, fanout int, epoch uint64) (*node, *node) {
	nd = nd.owned(epoch)
	var half *node
	if nd.children == nil {
		nd.entries = appendExact(nd.entries, *e)
		if len(nd.entries) > fanout {
			a, b := splitSlice(nd.entries, func(en Entry) geom.Point { return en.Box.Center() })
			nd.entries, half = a, &node{entries: b, epoch: epoch}
		}
	} else {
		best := chooseSubtree(nd.children, e.Box)
		c1, c2 := insertNode(nd.children[best], e, fanout, epoch)
		nd.children[best] = c1
		if c2 != nil {
			nd.children = appendExact(nd.children, c2)
		}
		if len(nd.children) > fanout {
			a, b := splitSlice(nd.children, func(c *node) geom.Point { return c.box.Center() })
			nd.children, half = a, &node{children: b, epoch: epoch}
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

// chooseSubtree picks the child whose box grows least (by area) to admit
// box — Guttman's ChooseLeaf criterion, with area as the tie-breaker.
func chooseSubtree(children []*node, box geom.AABB) int {
	best, bestGrow, bestArea := 0, math.Inf(1), math.Inf(1)
	for i, c := range children {
		area := c.box.Area()
		grow := c.box.Union(box).Area() - area
		if grow < bestGrow || (grow == bestGrow && area < bestArea) {
			best, bestGrow, bestArea = i, grow, area
		}
	}
	return best
}

// splitSlice halves an overflowing slice along the axis with the larger
// center spread — cheap, and it keeps both halves spatially coherent,
// which is all the sweep queries need from an overflow split.
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
