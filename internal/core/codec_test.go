package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/envelope"
	"repro/internal/numeric"
	"repro/internal/workload"
)

// TestTreeJSONRoundTrip: WriteJSON carries the query parameters, the kept
// and pruned sets and every node with its descriptor, in walk order.
func TestTreeJSONRoundTrip(t *testing.T) {
	trs, q := staticSet(t)
	tree := treeFor(t, trs, q, 0.5, Config{Descriptors: true, DescriptorSamples: 3, Grid: 128})
	var buf bytes.Buffer
	if err := tree.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got treeJSON
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.QueryOID != tree.QueryOID || got.Tb != tree.Tb || got.Te != tree.Te || got.R != tree.R {
		t.Fatalf("params changed: %+v", got)
	}
	if len(got.Pruned) != len(tree.PrunedOIDs) || len(got.Kept) != len(tree.KeptOIDs) {
		t.Fatal("pruned/kept changed")
	}
	// Node-by-node comparison (same walk order).
	var orig []*Node
	tree.Walk(func(n *Node) { orig = append(orig, n) })
	var back []nodeJSON
	var walk func([]nodeJSON)
	walk = func(ns []nodeJSON) {
		for _, n := range ns {
			back = append(back, n)
			walk(n.Children)
		}
	}
	walk(got.Roots)
	if len(back) != len(orig) {
		t.Fatalf("%d nodes written, tree has %d", len(back), len(orig))
	}
	for i := range orig {
		a, b := orig[i], back[i]
		if a.ID != b.ID || a.Level != b.Level ||
			math.Abs(a.T0-b.T0) > 1e-12 || math.Abs(a.T1-b.T1) > 1e-12 {
			t.Fatalf("node %d differs: %+v vs %+v", i, a, b)
		}
		if (a.Descriptor == nil) != (b.Descriptor == nil) {
			t.Fatalf("node %d descriptor presence differs", i)
		}
		if a.Descriptor != nil {
			if a.Descriptor.MinProb != b.Descriptor.MinProb ||
				len(a.Descriptor.Samples) != len(b.Descriptor.Samples) {
				t.Fatalf("node %d descriptor differs", i)
			}
		}
	}
}

// TestTheorem2DualConsistency checks the paper's Theorem 2: the tree's
// level-L nodes are the level-L envelope restricted to where the defining
// trajectory still has non-zero probability. At sampled instants inside
// every level-L node where the node's function is strictly inside the 4r
// zone, its value must be the level-L envelope's there.
func TestTheorem2DualConsistency(t *testing.T) {
	const (
		r    = 0.5
		maxL = 4
		// inside is how far below the zone's top a value must sit to count
		// as strictly inside: every function at or below it then spends
		// far more than TimeEps in the zone around the instant.
		inside = 1e-6
	)
	for _, seed := range []int64{7, 777, 2025} {
		trs, err := workload.Generate(workload.DefaultConfig(seed), 200)
		if err != nil {
			t.Fatal(err)
		}
		q := trs[0]
		tree := treeFor(t, trs, q, r, Config{MaxLevels: maxL})
		fns, err := envelope.BuildDistanceFuncs(trs, q, 0, 60)
		if err != nil {
			t.Fatal(err)
		}
		levels, err := envelope.KLevelEnvelopes(fns, 0, 60, maxL)
		if err != nil {
			t.Fatal(err)
		}
		fnsByID := map[int64]*envelope.DistanceFunc{}
		for _, f := range fns {
			fnsByID[f.ID] = f
		}
		env1 := tree.p.Envelope()
		checked := make([]int, maxL)
		tree.Walk(func(n *Node) {
			if n.T1-n.T0 < 1e-6 {
				return
			}
			f := fnsByID[n.ID]
			ts := numeric.Linspace(n.T0, n.T1, 9)
			for _, tm := range ts[1 : len(ts)-1] {
				v := f.Value(tm)
				if v >= env1.ValueAt(tm)+4*r-inside {
					continue
				}
				checked[n.Level-1]++
				if want := levels[n.Level-1].ValueAt(tm); math.Abs(v-want) > 1e-9 {
					t.Errorf("seed %d t=%g: level-%d node %d at %.12g, level-%d envelope at %.12g",
						seed, tm, n.Level, n.ID, v, n.Level, want)
				}
			}
		})
		for l, c := range checked {
			if c == 0 {
				t.Errorf("seed %d: no level-%d sample checked", seed, l+1)
			}
		}
	}
}
