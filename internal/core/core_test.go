package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/envelope"
	"repro/internal/mod"
	"repro/internal/numeric"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// processorFor is the engine's processor for query q over [tb, te] on a
// store of trs with uncertainty radius r and the given tags, restricted to
// the objects where matches (nil: all of them).
func processorFor(t testing.TB, trs []*trajectory.Trajectory, q int64, tb, te, r float64, tags map[int64][]string, where *textidx.Predicate) *queries.Processor {
	t.Helper()
	store, err := mod.NewUniformStore(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	for oid, tg := range tags {
		if err := store.SetTags(oid, tg); err != nil {
			t.Fatal(err)
		}
	}
	p, err := engine.New(1).ProcessorWhereCtx(context.Background(), store, q, tb, te, where)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// treeFor builds the tree of q over [0, 60] through the engine's processor.
func treeFor(t testing.TB, trs []*trajectory.Trajectory, q *trajectory.Trajectory, r float64, cfg Config) *Tree {
	t.Helper()
	tree, err := FromProcessor(context.Background(), processorFor(t, trs, q.OID, 0, 60, r, nil, nil), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func still(t *testing.T, oid int64, x, y float64) *trajectory.Trajectory {
	t.Helper()
	tr, err := trajectory.New(oid, []trajectory.Vertex{
		{X: x, Y: y, T: 0}, {X: x, Y: y, T: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// layout: query at origin; objects at increasing distances. With r = 0.5
// the zone width is 2, so object at distance 2 (gap 0) defines level 1,
// object at 3.5 (gap 1.5 <= 2) is level 2, object at 9 (gap 7) is pruned.
func staticSet(t *testing.T) ([]*trajectory.Trajectory, *trajectory.Trajectory) {
	t.Helper()
	q := still(t, 100, 0, 0)
	return []*trajectory.Trajectory{
		q,
		still(t, 1, 2, 0),
		still(t, 2, 3.5, 0),
		still(t, 3, 9, 0),
	}, q
}

// TestBuildErrors: construction fails with the context's error when ctx is
// done before it starts, and with the sampler's when the descriptor pdf
// cannot be convolved.
func TestBuildErrors(t *testing.T) {
	trs, q := staticSet(t)
	p := processorFor(t, trs, q.OID, 0, 60, 0.5, nil, nil)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FromProcessor(canceled, p, nil, Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled: %v", err)
	}
	expired, stop := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer stop()
	if _, err := FromProcessor(expired, p, nil, Config{Descriptors: true}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired: %v", err)
	}
	if _, err := FromProcessor(context.Background(), p, pointPDF{}, Config{Descriptors: true}); err == nil {
		t.Error("zero-support pdf accepted")
	}
}

// pointPDF has no support: there is no table to convolve it into.
type pointPDF struct{}

func (pointPDF) Support() float64        { return 0 }
func (pointPDF) Density(float64) float64 { return 0 }
func (pointPDF) Name() string            { return "point" }

func TestBuildStaticTree(t *testing.T) {
	trs, q := staticSet(t)
	tree := treeFor(t, trs, q, 0.5, Config{})
	// Level 1: single interval, object 1.
	if len(tree.Roots) != 1 || tree.Roots[0].ID != 1 {
		t.Fatalf("roots = %+v", tree.Roots)
	}
	if tree.Roots[0].T0 != 0 || tree.Roots[0].T1 != 60 || tree.Roots[0].Level != 1 {
		t.Errorf("root node = %+v", tree.Roots[0])
	}
	// Object 3 pruned, objects 1 and 2 kept.
	if len(tree.PrunedOIDs) != 1 || tree.PrunedOIDs[0] != 3 {
		t.Errorf("pruned = %v", tree.PrunedOIDs)
	}
	if len(tree.KeptOIDs) != 2 {
		t.Errorf("kept = %v", tree.KeptOIDs)
	}
	// Level 2: object 2 under object 1.
	kids := tree.Roots[0].Children
	if len(kids) != 1 || kids[0].ID != 2 || kids[0].Level != 2 {
		t.Fatalf("children = %+v", kids)
	}
	// No level 3 (object 3 pruned).
	if len(kids[0].Children) != 0 {
		t.Errorf("level 3 = %+v", kids[0].Children)
	}
	if tree.Depth() != 2 || tree.NodeCount() != 2 {
		t.Errorf("depth=%d count=%d", tree.Depth(), tree.NodeCount())
	}
	if got := tree.AnswerAt(30); got != 1 {
		t.Errorf("AnswerAt = %d", got)
	}
	if got := tree.RankedAt(30, 5); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("RankedAt = %v", got)
	}
	if z := tree.ZoneIntervals(3); len(z) != 0 {
		t.Errorf("pruned zone = %v", z)
	}
	if z := tree.ZoneIntervals(1); len(z) != 1 || z[0].T0 != 0 || z[0].T1 != 60 {
		t.Errorf("level-1 zone = %v", z)
	}
}

func TestMaxLevelsCap(t *testing.T) {
	trs, q := staticSet(t)
	tree := treeFor(t, trs, q, 0.5, Config{MaxLevels: 1})
	if tree.Depth() != 1 {
		t.Errorf("depth = %d", tree.Depth())
	}
	if len(tree.Roots[0].Children) != 0 {
		t.Error("children built beyond cap")
	}
}

func TestDescriptors(t *testing.T) {
	trs, q := staticSet(t)
	tree := treeFor(t, trs, q, 0.5, Config{Descriptors: true, DescriptorSamples: 3, Grid: 256})
	root := tree.Roots[0]
	if root.Descriptor == nil || len(root.Descriptor.Samples) != 3 {
		t.Fatalf("descriptor = %+v", root.Descriptor)
	}
	d := root.Descriptor
	if d.MinProb > d.MaxProb || d.MinProb < 0 || d.MaxProb > 1 {
		t.Errorf("bounds = [%g, %g]", d.MinProb, d.MaxProb)
	}
	// Object 1 (distance 2) vs object 2 (distance 3.5) with convolved
	// support 1: rings [1,3] and [2.5,4.5] overlap, so level-1 probability
	// is below 1 but must dominate level-2's.
	d2 := root.Children[0].Descriptor
	if d2 == nil {
		t.Fatal("level-2 descriptor missing")
	}
	if !(d.MinProb > d2.MaxProb) {
		t.Errorf("level-1 prob %g should dominate level-2 %g", d.MinProb, d2.MaxProb)
	}
	// Static geometry: probabilities constant across samples.
	for _, s := range d.Samples {
		if math.Abs(s.Prob-d.Samples[0].Prob) > 1e-9 {
			t.Errorf("non-constant probability: %+v", d.Samples)
		}
	}
	// Probabilities sum to <= 1 across levels.
	if d.Samples[0].Prob+d2.Samples[0].Prob > 1+1e-6 {
		t.Errorf("sum = %g", d.Samples[0].Prob+d2.Samples[0].Prob)
	}
}

// TestTreeOnWorkload exercises a moving workload end to end and checks the
// structural invariants the paper states.
func TestTreeOnWorkload(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(2025), 60)
	if err != nil {
		t.Fatal(err)
	}
	q := trs[0]
	r := 0.5
	tree := treeFor(t, trs, q, r, Config{MaxLevels: 3})
	if len(tree.KeptOIDs)+len(tree.PrunedOIDs) != len(trs)-1 {
		t.Fatalf("kept %d + pruned %d != %d", len(tree.KeptOIDs), len(tree.PrunedOIDs), len(trs)-1)
	}
	// Level-1 nodes tile [0, 60] and match the envelope's minimum.
	var lvl1 []*Node
	tree.Walk(func(n *Node) {
		if n.Level == 1 {
			lvl1 = append(lvl1, n)
		}
	})
	if lvl1[0].T0 != 0 || lvl1[len(lvl1)-1].T1 != 60 {
		t.Fatalf("level-1 does not tile window")
	}
	for i := 1; i < len(lvl1); i++ {
		if math.Abs(lvl1[i].T0-lvl1[i-1].T1) > 1e-9 {
			t.Fatalf("level-1 gap at %d", i)
		}
	}
	// At sampled times, the level-1 node is the true nearest difference
	// function; children are farther than their parents.
	fns, err := envelope.BuildDistanceFuncs(trs, q, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	fnsByID := map[int64]*envelope.DistanceFunc{}
	for _, f := range fns {
		fnsByID[f.ID] = f
	}
	tree.Walk(func(n *Node) {
		for _, c := range n.Children {
			for _, tm := range numeric.Linspace(c.T0, c.T1, 5) {
				if fnsByID[c.ID].Value(tm) < fnsByID[n.ID].Value(tm)-1e-6 {
					t.Errorf("child %d below parent %d at t=%g", c.ID, n.ID, tm)
				}
			}
		}
	})
	// Every node's trajectory enters the pruning zone within its interval.
	tree.Walk(func(n *Node) {
		f := fnsByID[n.ID]
		ok := false
		for _, tm := range numeric.Linspace(n.T0, n.T1, 33) {
			if f.Value(tm) <= tree.Envelope().ValueAt(tm)+4*r+1e-6 {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("node %d (level %d, [%g, %g]) never enters zone", n.ID, n.Level, n.T0, n.T1)
		}
	})
	// Depth respects the cap.
	if tree.Depth() > 3 {
		t.Errorf("depth = %d", tree.Depth())
	}
	// NodesAtLevel consistency.
	total := 0
	for l := 1; l <= tree.Depth(); l++ {
		total += len(tree.NodesAtLevel(l))
	}
	if total != tree.NodeCount() {
		t.Errorf("level sums %d != count %d", total, tree.NodeCount())
	}
}

// TestRankedAtMatchesDistances: RankedAt must order by distance at tm.
func TestRankedAtMatchesDistances(t *testing.T) {
	trs, err := workload.Generate(workload.SingleSegmentConfig(31), 30)
	if err != nil {
		t.Fatal(err)
	}
	q := trs[0]
	tree := treeFor(t, trs, q, 1, Config{MaxLevels: 2})
	fns, err := envelope.BuildDistanceFuncs(trs, q, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	fnsByID := map[int64]*envelope.DistanceFunc{}
	for _, f := range fns {
		fnsByID[f.ID] = f
	}
	for _, tm := range []float64{0, 17.3, 42, 60} {
		ids := tree.RankedAt(tm, 10)
		prev := -1.0
		for _, id := range ids {
			v := fnsByID[id].Value(tm)
			if v < prev-1e-9 {
				t.Fatalf("t=%g: ranking not by distance", tm)
			}
			prev = v
		}
	}
}

// TestPrunedNeverOnTree: pruned OIDs must not appear in any node.
func TestPrunedNeverOnTree(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(99), 80)
	if err != nil {
		t.Fatal(err)
	}
	tree := treeFor(t, trs, trs[0], 0.25, Config{MaxLevels: 4})
	pruned := map[int64]bool{}
	for _, id := range tree.PrunedOIDs {
		pruned[id] = true
	}
	tree.Walk(func(n *Node) {
		if pruned[n.ID] {
			t.Errorf("pruned oid %d on tree (level %d)", n.ID, n.Level)
		}
	})
}
