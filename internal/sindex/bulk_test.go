package sindex

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// The bulk loader's gate. NewRTree sorts packed integer keys and permutes
// the entries it owns in place; whatever order that leaves, the tree must
// hold each entry once, in nodes of at most fanout members whose bounds
// are exactly their members' union, and answer like a scan.

// bulkEntries reads 5-byte records (x, y, w|h|span, t0, id) off the fuzz
// input: coordinates either side of zero on a half-unit grid, so centers
// repeat; zero-width, zero-height and zero-area boxes; sixteen start
// times and four span lengths, so time spans are shared and a tree has
// several time slabs.
func bulkEntries(data []byte) []Entry {
	var es []Entry
	for ; len(data) >= 5; data = data[5:] {
		x, y := float64(int8(data[0])%24)/2, float64(int8(data[1])%24)/2
		t0 := float64(data[3]%16) * 5
		es = append(es, Entry{
			ID:  int64(data[4] % 48),
			Box: geom.AABB{MinX: x, MinY: y, MaxX: x + float64(data[2]&3), MaxY: y + float64(data[2]>>2&3)},
			T0:  t0, T1: t0 + float64(data[2]>>4&3)*10,
		})
	}
	return es
}

func compareEntries(a, b Entry) int {
	return cmp.Or(cmp.Compare(a.ID, b.ID),
		cmp.Compare(a.Box.MinX, b.Box.MinX), cmp.Compare(a.Box.MinY, b.Box.MinY),
		cmp.Compare(a.Box.MaxX, b.Box.MaxX), cmp.Compare(a.Box.MaxY, b.Box.MaxY),
		cmp.Compare(a.T0, b.T0), cmp.Compare(a.T1, b.T1))
}

// checkPacked walks t: every leaf at depth Height, at most fanout members
// (and at least one) per node, each node's box and time span bit for bit
// the union of its members', and the leaves' entries, as a multiset, es.
func checkPacked(tb testing.TB, tag string, t *RTree, es []Entry) {
	tb.Helper()
	if t.Len() != len(es) {
		tb.Fatalf("%s: Len %d, %d entries", tag, t.Len(), len(es))
	}
	if len(es) == 0 {
		if t.root != nil || t.height != 0 {
			tb.Fatalf("%s: an empty tree has a root or height %d", tag, t.height)
		}
		return
	}
	var got []Entry
	var walk func(nd *node, depth int)
	walk = func(nd *node, depth int) {
		members := len(nd.entries) + len(nd.children)
		if members == 0 || members > t.fanout || (nd.entries != nil) == (nd.children != nil) {
			tb.Fatalf("%s: node at depth %d holds %d entries and %d children, fanout %d",
				tag, depth, len(nd.entries), len(nd.children), t.fanout)
		}
		want := node{entries: nd.entries, children: nd.children}
		refRecompute(&want)
		if !boxBitsEqual(nd.box, want.box) || !bitsEqual(nd.t0, want.t0) || !bitsEqual(nd.t1, want.t1) {
			tb.Fatalf("%s: node at depth %d has bounds %v [%g, %g], its members' union %v [%g, %g]",
				tag, depth, nd.box, nd.t0, nd.t1, want.box, want.t0, want.t1)
		}
		if nd.children == nil {
			if depth != t.height {
				tb.Fatalf("%s: a leaf at depth %d of a tree of height %d", tag, depth, t.height)
			}
			got = append(got, nd.entries...)
		}
		for _, c := range nd.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 1)
	want := slices.Clone(es)
	slices.SortFunc(got, compareEntries)
	slices.SortFunc(want, compareEntries)
	if !slices.EqualFunc(got, want, func(a, b Entry) bool { return compareEntries(a, b) == 0 }) {
		tb.Fatalf("%s: the tree holds %v, the entries are %v", tag, got, want)
	}
}

// checkAnswers probes t around every tenth entry: the range search against the
// scan, KNN against refKNN (the container/heap search over the same tree)
// and, for its distances, against the per-ID scan. KNN is asked at the
// entry's mid-time and at both closed ends of its interval, the instants
// a time-slab cut can put in different subtrees.
func checkAnswers(tb testing.TB, tag string, t *RTree, es []Entry) {
	tb.Helper()
	for i := 0; i < len(es); i += 10 {
		e := es[i]
		box, t0, t1 := e.Box.Expand(float64(i%3)), e.T0, e.T1
		if got, want := sortIDs(searchRange(t, box, t0, t1)), linearRange(es, box, t0, t1); !slices.Equal(got, want) {
			tb.Fatalf("%s: range search(%v, %g, %g) = %v, scan %v", tag, box, t0, t1, got, want)
		}
		p, k := geom.Point{X: e.Box.MinX - 0.25, Y: e.Box.MaxY}, 1+i%7
		for _, at := range []float64{e.T0, 0.5 * (e.T0 + e.T1), e.T1} {
			got := t.KNN(p, at, k)
			if want := refKNN(t, p, at, k); !slices.Equal(got, want) {
				tb.Fatalf("%s: KNN(%v, %g, %d) = %v, reference %v", tag, p, at, k, got, want)
			}
			oracle := perIDMinDist(es, p, at)
			dists := make([]float64, 0, len(oracle))
			for _, d := range oracle {
				dists = append(dists, d)
			}
			slices.Sort(dists)
			if len(got) != min(k, len(dists)) {
				tb.Fatalf("%s: KNN(%v, %g, %d) returned %d neighbors, the scan has %d ids", tag, p, at, k, len(got), len(dists))
			}
			for j, nb := range got {
				if nb.Dist != dists[j] || oracle[nb.ID] != nb.Dist {
					tb.Fatalf("%s: KNN(%v, %g, %d) result %d: id %d dist %g, scan %g / per-id %g", tag, p, at, k, j, nb.ID, nb.Dist, dists[j], oracle[nb.ID])
				}
			}
		}
	}
}

// FuzzBulkLoad bulk-loads a prefix of the input's entries and chains the
// rest in one Inserted batch: both trees keep every entry once in
// well-formed nodes and answer like a scan.
func FuzzBulkLoad(f *testing.F) {
	seed := make([]byte, 5*400)
	rand.New(rand.NewSource(23)).Read(seed)
	f.Add(seed, uint8(14), uint16(300))
	f.Add(seed, uint8(0), uint16(400))
	f.Add(seed[:5*33], uint8(2), uint16(0))
	same := make([]byte, 5*40) // one box, one span, one ID: every key ties
	f.Add(same, uint8(6), uint16(20))
	f.Fuzz(func(t *testing.T, data []byte, fan uint8, cut uint16) {
		es := bulkEntries(data)
		fanout := 2 + int(fan%15)
		base := int(cut) % (len(es) + 1)
		tree := NewRTree(slices.Clone(es[:base]), fanout)
		checkPacked(t, "bulk", tree, es[:base])
		checkAnswers(t, "bulk", tree, es[:base])
		grown := tree.Inserted(es[base:]...)
		checkPacked(t, "inserted", grown, es)
		checkAnswers(t, "inserted", grown, es)
	})
}
