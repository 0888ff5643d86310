package sindex

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
)

// This file adds incremental (persistent, path-copying) insertion to the
// two bulk-loaded trees. Both trees are immutable once built — the query
// path holds bare pointers into them from many goroutines — so a live
// ingest cannot mutate nodes in place. Inserted instead returns a NEW tree
// that shares every untouched node with the original and copies only the
// O(height) nodes along each insertion path (plus split siblings). Readers
// of the old tree keep a consistent snapshot; the store swaps its cached
// pointer under its index mutex. Packing quality degrades slowly compared
// to a fresh STR build, but per-update cost is O(height · fanout) instead
// of the O(n log n) rebuild the cache previously paid on every mutation.

// Inserted returns a tree containing the receiver's entries plus es. The
// receiver is not modified; unaffected subtrees are shared. A nil or empty
// receiver bulk-loads es instead.
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
	nt := &RTree{root: t.root, height: t.height, count: t.count, fanout: t.fanout}
	for _, e := range es {
		n1, n2 := insertNode(nt.root, e, nt.fanout)
		if n2 != nil {
			root := &node{children: []*node{n1, n2}}
			root.recompute()
			nt.root = root
			nt.height++
		} else {
			nt.root = n1
		}
		nt.count++
	}
	return nt
}

// insertNode inserts e below nd, copying the path. It returns the replaced
// node and, when the node overflowed, a split sibling.
func insertNode(nd *node, e Entry, fanout int) (*node, *node) {
	if nd.children == nil {
		ents := make([]Entry, len(nd.entries), len(nd.entries)+1)
		copy(ents, nd.entries)
		ents = append(ents, e)
		if len(ents) <= fanout {
			leaf := &node{entries: ents}
			leaf.recompute()
			return leaf, nil
		}
		a, b := splitSlice(ents, func(en Entry) geom.Point { return en.Box.Center() })
		la, lb := &node{entries: a}, &node{entries: b}
		la.recompute()
		lb.recompute()
		return la, lb
	}
	best := chooseSubtree(nd.children, e.Box)
	c1, c2 := insertNode(nd.children[best], e, fanout)
	kids := make([]*node, len(nd.children), len(nd.children)+1)
	copy(kids, nd.children)
	kids[best] = c1
	if c2 != nil {
		kids = append(kids, c2)
	}
	if len(kids) <= fanout {
		p := &node{children: kids}
		p.recompute()
		return p, nil
	}
	a, b := splitSlice(kids, func(c *node) geom.Point { return c.box.Center() })
	pa, pb := &node{children: a}, &node{children: b}
	pa.recompute()
	pb.recompute()
	return pa, pb
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
