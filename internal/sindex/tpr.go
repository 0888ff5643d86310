package sindex

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/geom"
)

// This file provides a TPR-tree-style index (Tao & Papadias / Šaltenis et
// al., the paper's related-work citations [33, 34]): entries are *moving*
// points with a validity interval, and nodes store time-parameterized
// bounding rectangles — a box at reference time plus velocity bounds — so
// range and NN queries can be answered at any time inside the horizon
// without rebuilding. The paper's own algorithms do not need it, but a MOD
// that serves many query windows does, and the related work benchmarks
// against it.

// MovingEntry is one indexed moving point: position at time T0, constant
// velocity, valid during [T0, T1].
type MovingEntry struct {
	ID     int64
	P      geom.Point // position at T0
	V      geom.Vec   // velocity (distance units per time unit)
	T0, T1 float64
}

// At returns the entry's position at time t (clamped to its validity).
func (e MovingEntry) At(t float64) geom.Point {
	if t < e.T0 {
		t = e.T0
	}
	if t > e.T1 {
		t = e.T1
	}
	dt := t - e.T0
	return geom.Point{X: e.P.X + e.V.X*dt, Y: e.P.Y + e.V.Y*dt}
}

// tprNode is a node with a time-parameterized bounding rectangle: box is
// the bound at refT, and the velocity bounds expand it linearly.
type tprNode struct {
	box          geom.AABB // at refT
	vMinX, vMaxX float64
	vMinY, vMaxY float64
	refT, t0, t1 float64
	children     []*tprNode
	entries      []MovingEntry
}

// boxAt returns the node's bounding box at time t (conservative: boxes
// only grow forward from refT; queries before refT use the refT box
// expanded backwards by the velocity bounds).
func (n *tprNode) boxAt(t float64) geom.AABB {
	dt := t - n.refT
	if dt >= 0 {
		return geom.AABB{
			MinX: n.box.MinX + n.vMinX*dt, MinY: n.box.MinY + n.vMinY*dt,
			MaxX: n.box.MaxX + n.vMaxX*dt, MaxY: n.box.MaxY + n.vMaxY*dt,
		}
	}
	return geom.AABB{
		MinX: n.box.MinX + n.vMaxX*dt, MinY: n.box.MinY + n.vMaxY*dt,
		MaxX: n.box.MaxX + n.vMinX*dt, MaxY: n.box.MaxY + n.vMinY*dt,
	}
}

// TPRTree is a bulk-loaded time-parameterized R-tree over moving points.
// Like RTree it is immutable; Inserted (dyn.go) derives an updated tree
// sharing all untouched nodes, which is how live ingest extends predictive
// coverage without a rebuild.
type TPRTree struct {
	root   *tprNode
	count  int
	fanout int
	refT   float64
}

// NewTPRTree bulk-loads the entries (STR on positions at the common
// reference time refT). fanout <= 0 selects DefaultFanout.
func NewTPRTree(entries []MovingEntry, refT float64, fanout int) *TPRTree {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	t := &TPRTree{count: len(entries), fanout: fanout, refT: refT}
	if len(entries) == 0 {
		return t
	}
	es := append([]MovingEntry(nil), entries...)
	slices.SortFunc(es, func(a, b MovingEntry) int { return cmp.Compare(a.At(refT).X, b.At(refT).X) })
	leafCount := (len(es) + fanout - 1) / fanout
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sliceSize := sliceCount * fanout
	var leaves []*tprNode
	for s := 0; s < len(es); s += sliceSize {
		end := s + sliceSize
		if end > len(es) {
			end = len(es)
		}
		strip := es[s:end]
		slices.SortFunc(strip, func(a, b MovingEntry) int { return cmp.Compare(a.At(refT).Y, b.At(refT).Y) })
		for i := 0; i < len(strip); i += fanout {
			j := i + fanout
			if j > len(strip) {
				j = len(strip)
			}
			leaf := &tprNode{entries: strip[i:j:j], refT: refT}
			leaf.recomputeTPR()
			leaves = append(leaves, leaf)
		}
	}
	level := leaves
	for len(level) > 1 {
		slices.SortFunc(level, func(a, b *tprNode) int { return cmp.Compare(a.box.Center().X, b.box.Center().X) })
		n := len(level)
		parentCount := (n + fanout - 1) / fanout
		sc := int(math.Ceil(math.Sqrt(float64(parentCount))))
		ss := sc * fanout
		var parents []*tprNode
		for s := 0; s < n; s += ss {
			end := s + ss
			if end > n {
				end = n
			}
			strip := level[s:end]
			slices.SortFunc(strip, func(a, b *tprNode) int { return cmp.Compare(a.box.Center().Y, b.box.Center().Y) })
			for i := 0; i < len(strip); i += fanout {
				j := i + fanout
				if j > len(strip) {
					j = len(strip)
				}
				p := &tprNode{children: strip[i:j:j], refT: refT}
				p.recomputeTPR()
				parents = append(parents, p)
			}
		}
		level = parents
	}
	t.root = level[0]
	return t
}

func (n *tprNode) recomputeTPR() {
	n.box = geom.EmptyAABB()
	n.vMinX, n.vMinY = math.Inf(1), math.Inf(1)
	n.vMaxX, n.vMaxY = math.Inf(-1), math.Inf(-1)
	n.t0, n.t1 = math.Inf(1), math.Inf(-1)
	for _, e := range n.entries {
		n.box = n.box.ExtendPoint(e.At(n.refT))
		vxLo, vxHi := e.V.X, e.V.X
		vyLo, vyHi := e.V.Y, e.V.Y
		if e.T0 > n.refT || e.T1 < n.refT {
			// The entry is clamped at an endpoint position outside its
			// validity window, so between refT and a query time inside the
			// window it moves for only part of the elapsed span: its
			// effective velocity lies between 0 and V componentwise, and
			// the node bounds must include 0 to keep boxAt conservative.
			vxLo, vxHi = math.Min(vxLo, 0), math.Max(vxHi, 0)
			vyLo, vyHi = math.Min(vyLo, 0), math.Max(vyHi, 0)
		}
		n.vMinX = math.Min(n.vMinX, vxLo)
		n.vMaxX = math.Max(n.vMaxX, vxHi)
		n.vMinY = math.Min(n.vMinY, vyLo)
		n.vMaxY = math.Max(n.vMaxY, vyHi)
		n.t0 = math.Min(n.t0, e.T0)
		n.t1 = math.Max(n.t1, e.T1)
	}
	for _, c := range n.children {
		n.box = n.box.Union(c.box)
		n.vMinX = math.Min(n.vMinX, c.vMinX)
		n.vMaxX = math.Max(n.vMaxX, c.vMaxX)
		n.vMinY = math.Min(n.vMinY, c.vMinY)
		n.vMaxY = math.Max(n.vMaxY, c.vMaxY)
		n.t0 = math.Min(n.t0, c.t0)
		n.t1 = math.Max(n.t1, c.t1)
	}
}

// Len returns the number of entries.
func (t *TPRTree) Len() int { return t.count }

// SearchAt returns the IDs of entries whose position at time tq lies in
// box, among entries valid at tq.
func (t *TPRTree) SearchAt(box geom.AABB, tq float64) []int64 {
	if t.root == nil {
		return nil
	}
	var out []int64
	var walk func(n *tprNode)
	walk = func(n *tprNode) {
		if tq < n.t0 || tq > n.t1 || !n.boxAt(tq).Intersects(box) {
			return
		}
		for _, e := range n.entries {
			if tq >= e.T0 && tq <= e.T1 && box.ContainsPoint(e.At(tq)) {
				out = append(out, e.ID)
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	slices.Sort(out)
	return out
}

var tprHeaps = sync.Pool{New: func() any { return new(knnHeap[tprNode, MovingEntry]) }}

// KNNAt returns the k nearest entries to p at time tq, best-first over the
// time-parameterized boxes. Duplicate IDs are collapsed, keeping the
// nearest — an object indexed with several moving entries (one per plan
// segment, the live-ingest layout) counts once, so rank-k callers get k
// distinct objects, mirroring RTree.KNN.
func (t *TPRTree) KNNAt(p geom.Point, tq float64, k int) []Neighbor {
	if t.root == nil || k <= 0 {
		return nil
	}
	q := tprHeaps.Get().(*knnHeap[tprNode, MovingEntry])
	defer func() {
		q.reset()
		tprHeaps.Put(q)
	}()
	q.push(knnItem[tprNode, MovingEntry]{dist: t.root.boxAt(tq).MinDistTo(p), nd: t.root})
	var out []Neighbor
	for len(*q) > 0 && len(out) < k {
		it := q.pop()
		if it.entry != nil {
			out = appendNeighbor(out, it.entry.ID, it.dist, min(k, t.count))
			continue
		}
		n := it.nd
		if tq < n.t0 || tq > n.t1 {
			continue
		}
		for i := range n.entries {
			e := &n.entries[i]
			if tq >= e.T0 && tq <= e.T1 {
				q.push(knnItem[tprNode, MovingEntry]{dist: e.At(tq).Dist(p), entry: e})
			}
		}
		for _, c := range n.children {
			q.push(knnItem[tprNode, MovingEntry]{dist: c.boxAt(tq).MinDistTo(p), nd: c})
		}
	}
	return out
}
