package sindex

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
)

// The batch step's gate. RTree.Inserted copies a node once per call and
// then edits it in place; the per-entry path-copying insert it replaced is
// kept here, with the arithmetic it had (math.Min/math.Max, bounds always
// recomputed from the members), as the reference: the two must build the
// same tree node for node, because the KNN heap's tie order — and with it
// every probe count downstream — depends on child and entry order.

func refUnion(b, o geom.AABB) geom.AABB {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return geom.AABB{
		MinX: math.Min(b.MinX, o.MinX), MinY: math.Min(b.MinY, o.MinY),
		MaxX: math.Max(b.MaxX, o.MaxX), MaxY: math.Max(b.MaxY, o.MaxY),
	}
}

func refRecompute(nd *node) {
	nd.box = geom.EmptyAABB()
	nd.t0, nd.t1 = math.Inf(1), math.Inf(-1)
	for _, e := range nd.entries {
		nd.box = refUnion(nd.box, e.Box)
		nd.t0 = math.Min(nd.t0, e.T0)
		nd.t1 = math.Max(nd.t1, e.T1)
	}
	for _, c := range nd.children {
		nd.box = refUnion(nd.box, c.box)
		nd.t0 = math.Min(nd.t0, c.t0)
		nd.t1 = math.Max(nd.t1, c.t1)
	}
}

func refChooseSubtree(children []*node, e Entry) int {
	best, bestGrow, bestVol := 0, math.Inf(1), math.Inf(1)
	for i, c := range children {
		vol := c.box.Area() * (c.t1 - c.t0)
		grow := refUnion(c.box, e.Box).Area()*(math.Max(c.t1, e.T1)-math.Min(c.t0, e.T0)) - vol
		if grow < bestGrow || (grow == bestGrow && vol < bestVol) {
			best, bestGrow, bestVol = i, grow, vol
		}
	}
	return best
}

// refInserted is Inserted as it was: one path copy per entry.
func refInserted(t *RTree, es ...Entry) *RTree {
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
	nt := &RTree{root: t.root, height: t.height, count: t.count, fanout: t.fanout}
	for _, e := range es {
		n1, n2 := refInsertNode(nt.root, e, nt.fanout)
		if n2 != nil {
			root := &node{children: []*node{n1, n2}}
			refRecompute(root)
			nt.root = root
			nt.height++
		} else {
			nt.root = n1
		}
		nt.count++
	}
	return nt
}

func refInsertNode(nd *node, e Entry, fanout int) (*node, *node) {
	if nd.children == nil {
		ents := make([]Entry, len(nd.entries), len(nd.entries)+1)
		copy(ents, nd.entries)
		ents = append(ents, e)
		if len(ents) <= fanout {
			leaf := &node{entries: ents}
			refRecompute(leaf)
			return leaf, nil
		}
		a, b := splitSlice(ents, func(en Entry) geom.Point { return en.Box.Center() })
		la, lb := &node{entries: a}, &node{entries: b}
		refRecompute(la)
		refRecompute(lb)
		return la, lb
	}
	best := refChooseSubtree(nd.children, e)
	c1, c2 := refInsertNode(nd.children[best], e, fanout)
	kids := make([]*node, len(nd.children), len(nd.children)+1)
	copy(kids, nd.children)
	kids[best] = c1
	if c2 != nil {
		kids = append(kids, c2)
	}
	if len(kids) <= fanout {
		p := &node{children: kids}
		refRecompute(p)
		return p, nil
	}
	a, b := splitSlice(kids, func(c *node) geom.Point { return c.box.Center() })
	pa, pb := &node{children: a}, &node{children: b}
	refRecompute(pa)
	refRecompute(pb)
	return pa, pb
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func boxBitsEqual(a, b geom.AABB) bool {
	return bitsEqual(a.MinX, b.MinX) && bitsEqual(a.MinY, b.MinY) && bitsEqual(a.MaxX, b.MaxX) && bitsEqual(a.MaxY, b.MaxY)
}

// sameNode reports the first place two subtrees differ ("" if nowhere):
// bounds by bits, children and entries in order.
func sameNode(a, b *node, path string) string {
	switch {
	case !boxBitsEqual(a.box, b.box) || !bitsEqual(a.t0, b.t0) || !bitsEqual(a.t1, b.t1):
		return path + ": bounds differ"
	case len(a.children) != len(b.children) || len(a.entries) != len(b.entries):
		return path + ": member counts differ"
	}
	for i := range a.entries {
		ea, eb := a.entries[i], b.entries[i]
		if ea.ID != eb.ID || !boxBitsEqual(ea.Box, eb.Box) || !bitsEqual(ea.T0, eb.T0) || !bitsEqual(ea.T1, eb.T1) {
			return path + ": entries differ"
		}
	}
	for i := range a.children {
		if d := sameNode(a.children[i], b.children[i], path+"/"+string(rune('a'+i))); d != "" {
			return d
		}
	}
	return ""
}

func requireSameTree(tb testing.TB, tag string, got, want *RTree) {
	tb.Helper()
	if got.Len() != want.Len() || got.height != want.height || got.fanout != want.fanout {
		tb.Fatalf("%s: Len/Height/fanout %d/%d/%d, reference %d/%d/%d", tag,
			got.Len(), got.height, got.fanout, want.Len(), want.height, want.fanout)
	}
	if (got.root == nil) != (want.root == nil) {
		tb.Fatalf("%s: one tree is empty", tag)
	}
	if got.root != nil {
		if d := sameNode(got.root, want.root, "root"); d != "" {
			tb.Fatalf("%s: %s", tag, d)
		}
	}
}

// deepHash folds everything a reader of t can observe, and the epochs an
// Inserted call reads: a tree that hashes the same was not written to.
func deepHash(t *RTree) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	fb := math.Float64bits
	var walk func(nd *node)
	walk = func(nd *node) {
		put(fb(nd.box.MinX), fb(nd.box.MinY), fb(nd.box.MaxX), fb(nd.box.MaxY), fb(nd.t0), fb(nd.t1),
			nd.epoch, uint64(len(nd.children)), uint64(len(nd.entries)))
		for _, e := range nd.entries {
			put(uint64(e.ID), fb(e.Box.MinX), fb(e.Box.MinY), fb(e.Box.MaxX), fb(e.Box.MaxY), fb(e.T0), fb(e.T1))
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	if t != nil {
		put(uint64(t.count), uint64(t.height), uint64(t.fanout))
		if t.root != nil {
			walk(t.root)
		}
	}
	return h.Sum64()
}

// revisionEntries draws n entries the way a revision batch does — a few
// consecutive segments per object — on a half-unit grid, so boxes repeat
// exactly and chooseSubtree meets real ties.
func revisionEntries(rng *rand.Rand, n int, firstID int64) []Entry {
	grid := func(v float64) float64 { return math.Round(v*2) / 2 }
	es := make([]Entry, 0, n)
	for id := firstID; len(es) < n; id++ {
		t := grid(rng.Float64() * 30)
		x, y := grid(rng.Float64()*40), grid(rng.Float64()*40)
		for s := 0; s < 3 && len(es) < n; s++ {
			nx, ny := grid(x+8*(rng.Float64()-0.5)), grid(y+8*(rng.Float64()-0.5))
			e := Entry{ID: id, Box: geom.AABBOf(geom.Point{X: x, Y: y}, geom.Point{X: nx, Y: ny}).Expand(0.5), T0: t, T1: t + 10}
			if len(es) > 0 && rng.Intn(5) == 0 {
				e.Box = es[rng.Intn(len(es))].Box
			}
			es = append(es, e)
			x, y, t = nx, ny, t+10
		}
	}
	return es
}

// TestInsertedBatchEqualsReference chains batches through both inserts
// from one bulk-loaded tree: the batch step must build the reference's
// tree at every step and leave its receiver untouched.
func TestInsertedBatchEqualsReference(t *testing.T) {
	chain := 200
	if testing.Short() {
		chain = 20
	}
	for _, fanout := range []int{4, 8, 16} {
		for _, size := range []int{1, 7, 600} {
			rng := rand.New(rand.NewSource(int64(1000*fanout + size)))
			got := NewRTree(revisionEntries(rng, 5*fanout, 1), fanout)
			want := got
			startHeight := got.height
			for step := 0; step < chain; step++ {
				batch := revisionEntries(rng, size, int64(1000+step*size))
				check := size < 600 || step%20 == 0 || step == chain-1
				var before uint64
				if check {
					before = deepHash(got)
				}
				next := got.Inserted(batch...)
				want = refInserted(want, batch...)
				if check {
					if deepHash(got) != before {
						t.Fatalf("fanout %d size %d step %d: Inserted wrote to its receiver", fanout, size, step)
					}
					requireSameTree(t, "batch", next, want)
				}
				got = next
			}
			if size > 1 && got.height <= startHeight {
				t.Fatalf("fanout %d size %d: height stayed %d, the chain never grew the root", fanout, size, startHeight)
			}
		}
	}
}

// TestInsertedBatchEmptyAndNilReceivers: no tree to copy from means a bulk
// load, exactly as before.
func TestInsertedBatchEmptyAndNilReceivers(t *testing.T) {
	es := revisionEntries(rand.New(rand.NewSource(3)), 50, 1)
	var nilTree *RTree
	requireSameTree(t, "nil", nilTree.Inserted(es...), refInserted(nil, es...))
	empty := NewRTree(nil, 4)
	requireSameTree(t, "empty", empty.Inserted(es...), refInserted(empty, es...))
	if nilTree.Inserted() != nil || empty.Inserted() != empty {
		t.Fatal("an empty batch must return the receiver")
	}
}

// TestInsertedSiblingsAreIndependent: two batches applied to one parent
// share its nodes and nothing else.
func TestInsertedSiblingsAreIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	parent := NewRTree(revisionEntries(rng, 300, 1), 8).Inserted(revisionEntries(rng, 40, 1000)...)
	a, b := revisionEntries(rng, 120, 2000), revisionEntries(rng, 120, 3000)
	before := deepHash(parent)
	ta := parent.Inserted(a...)
	tb := parent.Inserted(b...)
	ta2 := ta.Inserted(b...)
	if deepHash(parent) != before {
		t.Fatal("a child's batch wrote to the parent")
	}
	requireSameTree(t, "a", ta, refInserted(parent, a...))
	requireSameTree(t, "b", tb, refInserted(parent, b...))
	requireSameTree(t, "a then b", ta2, refInserted(refInserted(parent, a...), b...))
	world := geom.AABB{MinX: -100, MinY: -100, MaxX: 100, MaxY: 100}
	for _, id := range searchRange(ta, world, -1e9, 1e9) {
		if id >= 3000 {
			t.Fatalf("tree a holds entry %d of batch b", id)
		}
	}
	for _, id := range searchRange(tb, world, -1e9, 1e9) {
		if id >= 2000 && id < 3000 {
			t.Fatalf("tree b holds entry %d of batch a", id)
		}
	}
}

// TestInsertedChainRetainsOnlyTheNewestTree: whatever marks a node as the
// running call's own must not keep the tree it was made for alive, or every
// superseded tree of a chain stays reachable through the leaves the newest
// one still shares with it.
func TestInsertedChainRetainsOnlyTheNewestTree(t *testing.T) {
	const batches = 500
	rng := rand.New(rand.NewSource(11))
	collected := make(chan struct{}, batches)
	tree := NewRTree(revisionEntries(rng, 2000, 1), 16)
	want := tree
	for i := 0; i < batches; i++ {
		batch := revisionEntries(rng, 7, int64(10000+10*i))
		runtime.SetFinalizer(tree.root, func(*node) { collected <- struct{}{} })
		tree = tree.Inserted(batch...)
		want = refInserted(want, batch...)
	}
	runtime.GC()
	runtime.GC()
	timeout := time.After(10 * time.Second)
	for i := 0; i < batches; i++ {
		select {
		case <-collected:
		case <-timeout:
			t.Fatalf("%d of %d replaced roots are still reachable from the newest tree", batches-i, batches)
		}
	}
	requireSameTree(t, "newest", tree, want)
	runtime.KeepAlive(tree)
}

// TestInsertedBesideReaders: readers keep walking the tree they hold while
// a writer chains batches from it; under -race any in-place edit of a node
// they can reach is reported, and their answers never move.
func TestInsertedBesideReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := NewRTree(revisionEntries(rng, 3000, 1), 16).Inserted(revisionEntries(rng, 200, 5000)...)
	box := geom.AABB{MinX: 10, MinY: 10, MaxX: 25, MaxY: 25}
	p := geom.Point{X: 20, Y: 20}
	wantRange := searchRange(base, box, 0, 60)
	wantKNN := base.KNN(p, 20, 8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !slices.Equal(searchRange(base, box, 0, 60), wantRange) || !slices.Equal(base.KNN(p, 20, 8), wantKNN) {
					t.Error("a reader's answer moved while a writer chained batches from its tree")
					return
				}
			}
		}()
	}
	tree := base
	for i := 0; i < 60; i++ {
		tree = tree.Inserted(revisionEntries(rng, 100, int64(20000+100*i))...)
		if i%4 == 3 {
			tree = base // start a sibling chain from the readers' own tree
		}
	}
	close(stop)
	wg.Wait()
}

// fuzzEntries reads 5-byte records (x, y, w|h, t0, id) off the fuzz input:
// small finite boxes on an integer grid, with every kind of repetition.
func fuzzEntries(data []byte) []Entry {
	var es []Entry
	for ; len(data) >= 5; data = data[5:] {
		x, y := float64(data[0]%64), float64(data[1]%64)
		t0 := float64(data[3] % 60)
		es = append(es, Entry{
			ID:  int64(data[4] % 32),
			Box: geom.AABB{MinX: x, MinY: y, MaxX: x + float64(data[2]&7), MaxY: y + float64(data[2]>>3&7)},
			T0:  t0, T1: t0 + float64(data[2]>>6),
		})
	}
	return es
}

// FuzzInsertedBatch cuts the input's entries into batches and chains them:
// every step equals the reference node for node and leaves its receiver
// alone, and the last tree answers Visit and KNN like a scan of the entries.
func FuzzInsertedBatch(f *testing.F) {
	seed := make([]byte, 5*300)
	rand.New(rand.NewSource(17)).Read(seed)
	f.Add(seed, uint8(0), uint8(7))
	f.Add(seed[:5*40], uint8(1), uint8(1))
	f.Add(seed, uint8(2), uint8(200))
	f.Add([]byte{1, 1, 9, 0, 0, 1, 1, 9, 0, 0, 1, 1, 9, 0, 0, 1, 1, 9, 0, 0, 1, 1, 9, 0, 0, 1, 1, 9, 0, 0}, uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, fan, cut uint8) {
		es := fuzzEntries(data)
		fanout := []int{4, 8, 16}[fan%3]
		size := 1 + int(cut)
		base := min(len(es), int(cut)%(2*fanout))
		got := NewRTree(es[:base], fanout)
		want := got
		for lo := base; lo < len(es); lo += size {
			batch := es[lo:min(lo+size, len(es))]
			before := deepHash(got)
			next := got.Inserted(batch...)
			want = refInserted(want, batch...)
			if deepHash(got) != before {
				t.Fatalf("batch at %d wrote to its receiver", lo)
			}
			requireSameTree(t, "fuzz", next, want)
			got = next
		}
		if len(es) == 0 {
			return
		}
		box := es[len(es)/2].Box.Expand(3)
		t0 := es[len(es)/2].T0
		if ids := sortIDs(searchRange(got, box, t0, t0+5)); !slices.Equal(ids, linearRange(es, box, t0, t0+5)) {
			t.Fatalf("Visit: got %v, scan %v", ids, linearRange(es, box, t0, t0+5))
		}
		p := box.Center()
		nbs := got.KNN(p, t0, 4)
		if ref := want.KNN(p, t0, 4); !slices.Equal(nbs, ref) {
			t.Fatalf("KNN: got %v, reference tree %v", nbs, ref)
		}
		oracle := perIDMinDist(es, p, t0)
		dists := make([]float64, 0, len(oracle))
		for _, d := range oracle {
			dists = append(dists, d)
		}
		slices.Sort(dists)
		if len(nbs) != min(4, len(dists)) {
			t.Fatalf("KNN returned %d neighbors, scan has %d ids", len(nbs), len(dists))
		}
		for i, nb := range nbs {
			if nb.Dist != dists[i] || oracle[nb.ID] != nb.Dist {
				t.Fatalf("KNN result %d: id %d dist %g, scan %g / per-id %g", i, nb.ID, nb.Dist, dists[i], oracle[nb.ID])
			}
		}
	})
}

// BenchmarkInsertedBatch is the index's share of one ingest batch: entries
// drawn like a revision batch into a 40 000-entry bulk-loaded tree, each
// iteration a step from that same tree (so every one pays its first-touch
// copies, as a store's batch does).
func BenchmarkInsertedBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(2009))
	base := NewRTree(revisionEntries(rng, 40000, 1), 0)
	for _, bc := range []struct {
		name string
		size int
	}{{"1", 1}, {"7", 7}, {"600", 600}} {
		batches := make([][]Entry, 64)
		for i := range batches {
			batches[i] = revisionEntries(rng, bc.size, int64(100000+1000*i))
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkTree = base.Inserted(batches[i%len(batches)]...)
			}
		})
	}
}

var sinkTree *RTree
