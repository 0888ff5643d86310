package core

// The IPAC-NN construction as it stood before the tree became a view of
// the query processor: its own distance functions over every trajectory,
// its own Level-1 envelope, envelope.Prune + BelowIntervals zone map and
// P^NN loop. It is kept verbatim as the oracle FromProcessor's output is
// compared against byte for byte (TestFromProcessorMatchesReference) and
// as the "reference" row of BenchmarkTreeConstruction.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/envelope"
	"repro/internal/mod"
	"repro/internal/numeric"
	"repro/internal/textidx"
	"repro/internal/trajectory"
	"repro/internal/uncertain"
	"repro/internal/updf"
	"repro/internal/workload"
)

var (
	errRefQueryNotFound = errors.New("core: query trajectory not in collection")
	errRefNoObjects     = errors.New("core: no candidate objects besides the query")
	errRefBadRadius     = errors.New("core: uncertainty radius must be positive")
)

// refTree is a reference-built tree with the geometry the reference keeps
// beside it: every distance function, the Level-1 envelope, the zone map.
type refTree struct {
	*Tree
	env1 *envelope.Envelope
	fns  []*envelope.DistanceFunc
	zone map[int64][]envelope.TimeInterval
}

// refBuild runs Algorithm 3: construct the lower envelope (level 1), prune
// the objects that can never have non-zero NN probability, then refine
// each level's intervals recursively. The trajectory set trs must contain
// q (matched by OID); all trajectories must cover [tb, te]; r is the
// shared uncertainty radius; pdf is the shared location pdf (nil selects
// the uniform disk, making the convolved difference pdf the exact
// uniform◦uniform form).
func refBuild(trs []*trajectory.Trajectory, q *trajectory.Trajectory, tb, te, r float64, pdf updf.RadialPDF, cfg Config) (*refTree, error) {
	if r <= 0 {
		return nil, errRefBadRadius
	}
	found := false
	for _, tr := range trs {
		if tr.OID == q.OID {
			found = true
			break
		}
	}
	if !found {
		return nil, errRefQueryNotFound
	}
	if len(trs) < 2 {
		return nil, errRefNoObjects
	}
	fns, err := envelope.BuildDistanceFuncs(trs, q, tb, te)
	if err != nil {
		return nil, err
	}
	env1, err := envelope.LowerEnvelope(fns, tb, te)
	if err != nil {
		return nil, err
	}
	width := 4 * r
	kept, pruned := envelope.Prune(fns, env1, width)

	t := &refTree{
		Tree: &Tree{QueryOID: q.OID, Tb: tb, Te: te, R: r},
		env1: env1, fns: fns,
		zone: make(map[int64][]envelope.TimeInterval, len(kept)),
	}
	for _, f := range pruned {
		t.PrunedOIDs = append(t.PrunedOIDs, f.ID)
	}
	for _, f := range kept {
		t.KeptOIDs = append(t.KeptOIDs, f.ID)
		t.zone[f.ID] = envelope.BelowIntervals(f, env1, width)
	}

	if pdf == nil {
		pdf = updf.NewUniformDisk(r)
	}
	var desc *descriptorEngine
	if cfg.Descriptors {
		conv, err := updf.ConvolvePair(pdf, pdf, 0)
		if err != nil {
			return nil, fmt.Errorf("core: convolving pdfs: %w", err)
		}
		samples := cfg.DescriptorSamples
		if samples <= 0 {
			samples = 5
		}
		grid := cfg.Grid
		if grid <= 0 {
			grid = uncertain.DefaultGrid
		}
		desc = &descriptorEngine{conv: conv, kept: kept, samples: samples, grid: grid}
	}

	// Level 1: the envelope's intervals.
	for _, iv := range env1.Intervals {
		node := &Node{ID: iv.ID, T0: iv.T0, T1: iv.T1, Level: 1}
		if desc != nil {
			node.Descriptor = desc.describe(node.ID, node.T0, node.T1)
		}
		t.Roots = append(t.Roots, node)
	}
	// Refine recursively.
	for _, root := range t.Roots {
		t.buildChildren(root, map[int64]bool{root.ID: true}, kept, cfg, desc)
	}
	return t, nil
}

// buildChildren populates node's children: the lower envelope of the kept
// functions minus the ancestor chain, restricted to the node's interval,
// filtered to sub-intervals where the defining trajectory still has
// non-zero NN probability (its zone intervals overlap).
func (t *refTree) buildChildren(node *Node, excluded map[int64]bool, kept []*envelope.DistanceFunc, cfg Config, desc *descriptorEngine) {
	if cfg.MaxLevels > 0 && node.Level >= cfg.MaxLevels {
		return
	}
	var cands []*envelope.DistanceFunc
	for _, f := range kept {
		if !excluded[f.ID] && t.overlapsZone(f.ID, node.T0, node.T1) {
			cands = append(cands, f)
		}
	}
	if len(cands) == 0 {
		return
	}
	env, err := envelope.LowerEnvelope(cands, node.T0, node.T1)
	if err != nil {
		return
	}
	for _, iv := range env.Intervals {
		if !t.overlapsZone(iv.ID, iv.T0, iv.T1) {
			continue
		}
		child := &Node{ID: iv.ID, T0: iv.T0, T1: iv.T1, Level: node.Level + 1}
		if desc != nil {
			child.Descriptor = desc.describe(child.ID, child.T0, child.T1)
		}
		node.Children = append(node.Children, child)
		childExcluded := make(map[int64]bool, len(excluded)+1)
		for id := range excluded {
			childExcluded[id] = true
		}
		childExcluded[iv.ID] = true
		t.buildChildren(child, childExcluded, kept, cfg, desc)
	}
}

// overlapsZone reports whether the object's non-zero-probability time set
// intersects [t0, t1] with positive measure.
func (t *refTree) overlapsZone(id int64, t0, t1 float64) bool {
	for _, iv := range t.zone[id] {
		if math.Min(iv.T1, t1)-math.Max(iv.T0, t0) > envelope.TimeEps {
			return true
		}
	}
	return false
}

// descriptorEngine computes probability descriptors through the Section 3.1
// reduction: a crisp query at the origin against objects carrying the
// convolved pdf at their difference-trajectory distances.
type descriptorEngine struct {
	conv    updf.RadialPDF
	kept    []*envelope.DistanceFunc
	samples int
	grid    int
}

func (d *descriptorEngine) describe(id int64, t0, t1 float64) *Descriptor {
	ts := numeric.Linspace(t0, t1, d.samples)
	out := &Descriptor{MinProb: math.Inf(1), MaxProb: math.Inf(-1)}
	cands := make([]uncertain.Candidate, len(d.kept))
	for _, tm := range ts {
		for i, f := range d.kept {
			cands[i] = uncertain.Candidate{ID: f.ID, Dist: f.Value(tm)}
		}
		probs := uncertain.NNProbabilities(d.conv, cands, d.grid)
		p := probs[id]
		out.Samples = append(out.Samples, ProbSample{T: tm, Prob: p})
		out.MinProb = math.Min(out.MinProb, p)
		out.MaxProb = math.Max(out.MaxProb, p)
	}
	return out
}

// TestFromProcessorMatchesReference: a tree read off the engine's
// processor writes the same JSON bytes as the reference construction over
// the same fleet — with a tag predicate, over the matching objects plus
// the query — at every depth cap, with descriptors at N = 60.
func TestFromProcessorMatchesReference(t *testing.T) {
	const r = 0.5
	where := &textidx.Predicate{All: []string{"on-duty"}}
	for _, n := range []int{60, 600, 3000} {
		for _, seed := range []int64{7, 2025} {
			trs, err := workload.Generate(workload.DefaultConfig(seed), n)
			if err != nil {
				t.Fatal(err)
			}
			q := trs[0]
			tags := map[int64][]string{}
			matching := []*trajectory.Trajectory{}
			for _, tr := range trs {
				if tr.OID%3 != 0 {
					tags[tr.OID] = where.All
				}
				if tr.OID%3 != 0 || tr.OID == q.OID {
					matching = append(matching, tr)
				}
			}
			for _, filtered := range []bool{false, true} {
				fleet, w := trs, (*textidx.Predicate)(nil)
				if filtered {
					fleet, w = matching, where
				}
				p := processorFor(t, trs, q.OID, 0, 60, r, tags, w)
				for levels := 0; levels <= 4; levels++ {
					cfg := Config{MaxLevels: levels, Descriptors: n == 60, DescriptorSamples: 3, Grid: 32}
					ref, err := refBuild(fleet, q, 0, 60, r, nil, cfg)
					if err != nil {
						t.Fatal(err)
					}
					tree, err := FromProcessor(context.Background(), p, nil, cfg)
					if err != nil {
						t.Fatal(err)
					}
					var want, got bytes.Buffer
					if err := ref.WriteJSON(&want); err != nil {
						t.Fatal(err)
					}
					if err := tree.WriteJSON(&got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("N=%d seed=%d filtered=%v levels=%d: %d nodes / %d kept, reference %d / %d",
							n, seed, filtered, levels, tree.NodeCount(), len(tree.KeptOIDs), ref.NodeCount(), len(ref.KeptOIDs))
					}
				}
			}
		}
	}
}

// TestFromProcessorCancellationCheckpoints: a context that dies during
// construction stops it at the checkpoint that sees it — before the next
// descriptor sample or node refinement — whether it is canceled or its
// deadline passes before the timer fires.
func TestFromProcessorCancellationCheckpoints(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(7), 60)
	if err != nil {
		t.Fatal(err)
	}
	p := processorFor(t, trs, trs[0].OID, 0, 60, 0.5, nil, nil)
	const samples = 3
	cfg := Config{MaxLevels: 2, Descriptors: true, DescriptorSamples: samples, Grid: 64}
	full := &dyingCtx{Context: context.Background(), after: math.MaxInt}
	tree, err := FromProcessor(full, p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One check before every descriptor sample, one before refining each
	// node above the depth cap.
	if want := tree.NodeCount()*samples + len(tree.NodesAtLevel(1)); full.calls != want {
		t.Fatalf("a full run checked its context %d times, want %d", full.calls, want)
	}
	for _, after := range []int{1, 2, samples + 1, full.calls / 2, full.calls} {
		ctx := &dyingCtx{Context: context.Background(), after: after}
		if _, err := FromProcessor(ctx, p, nil, cfg); err != context.Canceled {
			t.Fatalf("dying at check %d: err = %v, want context.Canceled", after, err)
		}
		if ctx.calls != after {
			t.Fatalf("construction checked its context %d times after a cancel at check %d", ctx.calls, after)
		}
		late := &lateTimerCtx{Context: context.Background(), after: after}
		if _, err := FromProcessor(late, p, nil, cfg); err != context.DeadlineExceeded {
			t.Fatalf("deadline at check %d: err = %v, want context.DeadlineExceeded", after, err)
		}
		if late.calls != after {
			t.Fatalf("construction checked its deadline %d times after it passed at check %d", late.calls, after)
		}
	}
}

// dyingCtx reports context.Canceled from its after-th Err call on, and
// counts the calls.
type dyingCtx struct {
	context.Context
	after, calls int
}

func (c *dyingCtx) Err() error {
	if c.calls++; c.calls >= c.after {
		return context.Canceled
	}
	return nil
}

// lateTimerCtx is a context whose deadline has passed from its after-th
// Deadline call on while its timer has not fired (Err stays nil), and
// counts the calls.
type lateTimerCtx struct {
	context.Context
	after, calls int
}

func (c *lateTimerCtx) Deadline() (time.Time, bool) {
	if c.calls++; c.calls >= c.after {
		return time.Now().Add(-time.Second), true
	}
	return time.Now().Add(time.Hour), true
}

// BenchmarkTreeConstruction builds the three-level tree (uncertnn -tree's
// default depth) of one query over [0, 60] at r = 0.5: "reference" with the reference construction over
// the whole fleet, "processor" through a fresh engine's processor (the
// index pre-pass and envelope build included) and FromProcessor.
func BenchmarkTreeConstruction(b *testing.B) {
	cfg := Config{MaxLevels: 3}
	for _, n := range []int{3000, 20000} {
		trs, err := workload.Generate(workload.DefaultConfig(7), n)
		if err != nil {
			b.Fatal(err)
		}
		q := trs[0]
		store, err := mod.NewUniformStore(0.5)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.InsertAll(trs); err != nil {
			b.Fatal(err)
		}
		viaProcessor := func() *Tree {
			p, err := engine.New(1).ProcessorWhereCtx(context.Background(), store, q.OID, 0, 60, nil)
			if err != nil {
				b.Fatal(err)
			}
			tree, err := FromProcessor(context.Background(), p, nil, cfg)
			if err != nil {
				b.Fatal(err)
			}
			return tree
		}
		store.BuildIndex(0) // a serving store keeps its index
		b.Run(fmt.Sprintf("n=%d/reference", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tree, err := refBuild(store.All(), q, 0, 60, 0.5, nil, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(tree.NodeCount()), "nodes")
			}
		})
		b.Run(fmt.Sprintf("n=%d/processor", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(float64(viaProcessor().NodeCount()), "nodes")
			}
		})
	}
}
