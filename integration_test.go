package repro_test

// End-to-end integration tests spanning the whole pipeline: workload →
// MOD store (+persistence, +index) → IPAC-NN tree → query variants → UQL
// → TCP server, with Monte Carlo cross-validation of the probabilistic
// answers. These are the "does the system hang together" tests; per-module
// behaviour is covered in each package.

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net"
	"testing"

	"repro"
	"repro/internal/envelope"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/modserver"
	"repro/internal/queries"
	"repro/internal/sindex"
	"repro/internal/trajectory"
	"repro/internal/uncertain"
	"repro/internal/updf"
	"repro/internal/uql"
)

// TestPipelineWorkloadToAnswers drives the full stack on one deterministic
// workload and cross-checks every layer against every other.
func TestPipelineWorkloadToAnswers(t *testing.T) {
	const (
		n    = 80
		r    = 0.5
		seed = 4242
	)
	store, err := repro.NewUniformStore(r)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := repro.GenerateWorkload(repro.DefaultWorkload(seed), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}

	// Persistence round trip must preserve answers bit-for-bit.
	var buf bytes.Buffer
	if err := store.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	store2, err := mod.LoadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	q, err := store.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	treeOf := func(store *repro.Store) *repro.IPACNNTree {
		t.Helper()
		ctx := context.Background()
		proc, err := repro.NewEngine(1).ProcessorWhereCtx(ctx, store, 1, 0, 60, nil)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := repro.BuildIPACNN(ctx, proc, nil, repro.TreeConfig{MaxLevels: 2})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	tree, tree2 := treeOf(store), treeOf(store2)
	if tree.NodeCount() != tree2.NodeCount() || len(tree.KeptOIDs) != len(tree2.KeptOIDs) {
		t.Fatalf("persistence changed the tree: %d/%d nodes, %d/%d kept",
			tree.NodeCount(), tree2.NodeCount(), len(tree.KeptOIDs), len(tree2.KeptOIDs))
	}

	// The R-tree index finds every tree participant near the query's path.
	idx := store.BuildIndex(0)
	qBox := q.BoundingBox().Expand(10) // generous corridor
	found := map[int64]bool{}
	for _, id := range searchRange(idx, qBox, 0, 60) {
		found[id] = true
	}
	for _, id := range tree.KeptOIDs {
		// Every unpruned object comes within 4r+eps of the query sometime,
		// so it must intersect a 10-mile corridor around the query's box.
		if !found[id] {
			t.Errorf("kept oid %d missed by index corridor", id)
		}
	}

	// Tree answers vs processor answers vs envelope.
	proc, err := queries.NewProcessor(store.All(), q, 0, 60, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{0.5, 15, 30, 45, 59.5} {
		best := tree.AnswerAt(tm)
		// The envelope's answer is the true nearest expected location.
		bestDist := math.Inf(1)
		var bestOID int64
		for _, tr := range trs {
			if tr.OID == q.OID {
				continue
			}
			if d := tr.At(tm).Dist(q.At(tm)); d < bestDist {
				bestDist = d
				bestOID = tr.OID
			}
		}
		if best != bestOID {
			t.Errorf("t=%g: tree answer %d, oracle %d", tm, best, bestOID)
		}
		// Fixed-time possible set contains the answer.
		inSet := false
		at, _ := proc.PossibleRankKAt(tm, 1)
		for _, id := range at {
			if id == best {
				inSet = true
			}
		}
		if !inSet {
			t.Errorf("t=%g: answer %d missing from possible set", tm, best)
		}
	}

	// Instantaneous probabilities at t=30: Theorem-1 ranking vs Monte
	// Carlo with the exact uniform-convolution pdf.
	rng := rand.New(rand.NewSource(1))
	qPos := q.At(30)
	var cands []uncertain.Candidate
	for _, tr := range trs {
		if tr.OID == q.OID {
			continue
		}
		cands = append(cands, uncertain.Candidate{ID: tr.OID, Dist: tr.At(30).Dist(qPos)})
	}
	conv := updf.NewUniformConv(r, r)
	probs := uncertain.NNProbabilities(conv, uncertain.Prune(conv, cands), 512)
	mc, err := uncertain.MonteCarloNN(conv, uncertain.Prune(conv, cands), 100000, rng)
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range probs {
		if math.Abs(mc[id]-p) > 0.02 {
			t.Errorf("id %d: MC %.4f vs analytic %.4f", id, mc[id], p)
		}
	}
	// The tree's t=30 answer has the top probability.
	top := tree.AnswerAt(30)
	for id, p := range probs {
		if id != top && p > probs[top]+1e-9 {
			t.Errorf("oid %d has probability %.4f above answer %d's %.4f", id, p, top, probs[top])
		}
	}
}

// TestPipelineOverTCP: the same answers through the network layer.
func TestPipelineOverTCP(t *testing.T) {
	store, err := repro.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := repro.GenerateWorkload(repro.DefaultWorkload(5), 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := modserver.NewServerWith(store, nil, modserver.Options{})
	go srv.Serve(l)
	defer srv.Close()

	c, err := modserver.DialWith(l.Addr().String(), modserver.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := uql.Parse("SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0")
	if err != nil {
		t.Fatal(err)
	}
	req := uql.Compile(st)
	answers, err := c.Query([]repro.Request{req}, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote := answers[0]
	if remote.Err != nil {
		t.Fatal(remote.Err)
	}
	local, err := repro.NewEngine(1).Do(context.Background(), store, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.OIDs) != len(local.OIDs) {
		t.Fatalf("remote %v vs local %v", remote.OIDs, local.OIDs)
	}
	for i := range local.OIDs {
		if remote.OIDs[i] != local.OIDs[i] {
			t.Fatalf("divergence at %d", i)
		}
	}
}

// TestGuaranteedVsThresholdConsistency: an object guaranteed to be the NN
// over an interval must have P^NN = 1 there.
func TestGuaranteedVsThresholdConsistency(t *testing.T) {
	// Construct a scene with a clear guarantee: near object at distance 2,
	// far object at 20, r = 0.5 (guarantee needs 2 + 2 <= 20 - ... holds).
	mk := func(oid int64, x float64) *trajectory.Trajectory {
		tr, err := trajectory.New(oid, []trajectory.Vertex{
			{X: x, Y: 0, T: 0}, {X: x, Y: 0, T: 60},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	trs := []*trajectory.Trajectory{mk(100, 0), mk(1, 2), mk(2, 20)}
	proc, err := queries.NewProcessor(trs, trs[0], 0, 60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := proc.GuaranteedNNIntervals(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 1 || g[0].T0 > 1e-9 || g[0].T1 < 60-1e-9 {
		t.Fatalf("guarantee = %v", g)
	}
	table, err := proc.ProbabilityTable(context.Background(), repro.ThresholdConfig{TimeSamples: 5, Grid: 256})
	if err != nil {
		t.Fatal(err)
	}
	probs, err := table.Series(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range probs {
		if math.Abs(p-1) > 1e-6 {
			t.Errorf("sample %d: P = %g, want 1", i, p)
		}
	}
	_ = envelope.TimeInterval{} // keep import grouping stable
}

// searchRange collects the IDs tree.Visit reports for box × [t0, t1], an ID
// once per matching entry.
func searchRange(tree *sindex.RTree, box geom.AABB, t0, t1 float64) []int64 {
	var out []int64
	tree.Visit(box, t0, t1, func(id int64) bool {
		out = append(out, id)
		return true
	})
	return out
}
