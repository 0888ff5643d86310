package sindex

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/geom"
)

// This file adds incremental (persistent, copy-on-write) insertion to the
// two bulk-loaded trees. A tree is immutable once it has been handed out —
// the query path holds bare pointers into it from many goroutines — so a
// live ingest never changes a node a reader can reach. Inserted instead
// returns a NEW tree that shares every untouched node with the original;
// readers of the old tree keep a consistent snapshot, and the store swaps
// its cached pointer under its index mutex. The R-tree takes a whole batch
// in one call: a node is copied the first time the call touches it and
// edited in place on every later touch, so a batch pays for each node on
// its insertion paths once (the TPR tree still copies a path per entry).
// Packing quality degrades slowly compared to a fresh STR build, but a
// batch costs what its own entries touch instead of the O(n log n) rebuild
// the cache would otherwise pay on every mutation.

// insertEpoch numbers the RTree.Inserted calls. A node records the epoch of
// the call that created it (0: bulk-loaded), and a call may edit exactly the
// nodes that carry its own epoch: no other call can hold that number, and —
// unlike a pointer to the tree being built — the number keeps nothing alive.
var insertEpoch atomic.Uint64

// Inserted returns a tree containing the receiver's entries plus es, as if
// they had been inserted one at a time in order. The receiver, and every
// tree derived from it earlier, is not modified; unaffected subtrees are
// shared. A nil or empty receiver bulk-loads es instead.
func (t *RTree) Inserted(es ...Entry) *RTree {
	if len(es) == 0 {
		return t
	}
	if t == nil || t.root == nil {
		fan := DefaultFanout
		if t != nil && t.fanout > 0 {
			fan = t.fanout
		}
		return NewRTree(es, fan)
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

// Inserted returns a TPR tree containing the receiver's entries plus es,
// sharing untouched nodes with the receiver — the live-ingest path that
// extends predictive coverage without a rebuild. A nil or empty receiver
// bulk-loads es at the receiver's reference time.
func (t *TPRTree) Inserted(es ...MovingEntry) *TPRTree {
	if len(es) == 0 {
		return t
	}
	if t == nil || t.root == nil {
		fan, ref := DefaultFanout, 0.0
		if t != nil {
			if t.fanout > 0 {
				fan = t.fanout
			}
			ref = t.refT
		}
		return NewTPRTree(es, ref, fan)
	}
	nt := &TPRTree{root: t.root, count: t.count, fanout: t.fanout, refT: t.refT}
	for _, e := range es {
		n1, n2 := insertTPRNode(nt.root, e, nt.fanout, nt.refT)
		if n2 != nil {
			root := &tprNode{children: []*tprNode{n1, n2}, refT: nt.refT}
			root.recomputeTPR()
			nt.root = root
		} else {
			nt.root = n1
		}
		nt.count++
	}
	return nt
}

func insertTPRNode(nd *tprNode, e MovingEntry, fanout int, refT float64) (*tprNode, *tprNode) {
	if nd.children == nil {
		ents := make([]MovingEntry, len(nd.entries), len(nd.entries)+1)
		copy(ents, nd.entries)
		ents = append(ents, e)
		if len(ents) <= fanout {
			leaf := &tprNode{entries: ents, refT: refT}
			leaf.recomputeTPR()
			return leaf, nil
		}
		a, b := splitSlice(ents, func(en MovingEntry) geom.Point { return en.At(refT) })
		la, lb := &tprNode{entries: a, refT: refT}, &tprNode{entries: b, refT: refT}
		la.recomputeTPR()
		lb.recomputeTPR()
		return la, lb
	}
	best, bestGrow, bestArea := 0, math.Inf(1), math.Inf(1)
	ebox := geom.AABBOf(e.At(refT))
	for i, c := range nd.children {
		area := c.box.Area()
		grow := c.box.Union(ebox).Area() - area
		if grow < bestGrow || (grow == bestGrow && area < bestArea) {
			best, bestGrow, bestArea = i, grow, area
		}
	}
	c1, c2 := insertTPRNode(nd.children[best], e, fanout, refT)
	kids := make([]*tprNode, len(nd.children), len(nd.children)+1)
	copy(kids, nd.children)
	kids[best] = c1
	if c2 != nil {
		kids = append(kids, c2)
	}
	if len(kids) <= fanout {
		p := &tprNode{children: kids, refT: refT}
		p.recomputeTPR()
		return p, nil
	}
	a, b := splitSlice(kids, func(c *tprNode) geom.Point { return c.box.Center() })
	pa, pb := &tprNode{children: a, refT: refT}, &tprNode{children: b, refT: refT}
	pa.recomputeTPR()
	pb.recomputeTPR()
	return pa, pb
}

// VisitInterval calls fn with the ID of every entry whose swept position
// over [t0, t1] ∩ [entry validity] can intersect box, until fn returns
// false; it reports whether the walk ran to completion (IDs repeat across
// entries). The node test unions the time-parameterized box at the
// interval ends (and at refT when the interval straddles it — the TPR
// edges are piecewise linear in t with a knee at refT, so the union of the
// extreme boxes contains every intermediate box); the entry test uses the
// exact axis-aligned box of the entry's linear sweep over the overlap.
// Both are conservative, which is what the prune sweep needs: no object
// whose expected position enters the query box during the interval is
// ever missed.
func (t *TPRTree) VisitInterval(box geom.AABB, t0, t1 float64, fn func(id int64) bool) bool {
	return t.root == nil || t1 < t0 || t.root.visit(box, t0, t1, fn)
}

func (n *tprNode) visit(box geom.AABB, t0, t1 float64, fn func(id int64) bool) bool {
	if t1 < n.t0 || t0 > n.t1 {
		return true
	}
	nb := n.boxAt(t0).Union(n.boxAt(t1))
	if t0 < n.refT && n.refT < t1 {
		nb = nb.Union(n.box)
	}
	if !nb.Intersects(box) {
		return true
	}
	for i := range n.entries {
		e := &n.entries[i]
		a, b := math.Max(t0, e.T0), math.Min(t1, e.T1)
		if b >= a && geom.AABBOf(e.At(a), e.At(b)).Intersects(box) && !fn(e.ID) {
			return false
		}
	}
	for _, c := range n.children {
		if !c.visit(box, t0, t1, fn) {
			return false
		}
	}
	return true
}

// SearchInterval collects VisitInterval's IDs, sorted (IDs may repeat
// across entries; callers dedupe).
func (t *TPRTree) SearchInterval(box geom.AABB, t0, t1 float64) []int64 {
	var out []int64
	t.VisitInterval(box, t0, t1, func(id int64) bool {
		out = append(out, id)
		return true
	})
	slices.Sort(out)
	return out
}
