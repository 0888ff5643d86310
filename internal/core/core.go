// Package core implements the paper's primary contribution: the IPAC-NN
// tree (Interval-based Probabilistic Answer to a Continuous NN query,
// Section 1 and Algorithm 3 of Section 3.2).
//
// The tree is a view of a query processor (queries.Processor): the
// processor has already built the difference-trajectory distance functions
// of the index survivors, the Level-1 lower envelope and the 4r zone rows,
// so FromProcessor runs only Algorithm 3's refinement on top of them.
// The tree's root carries the query parameters (query trajectory and time
// window). Level-1 nodes are the intervals of the lower envelope: at any
// instant, the envelope's defining trajectory has the highest probability
// of being the query's nearest neighbor (Theorem 1). Each node's children
// partition its time interval with the trajectories ranked next — the
// level-L envelope with the ancestor chain excluded — and recursion stops
// when no candidate with non-zero probability of being the nearest
// neighbor remains (a trajectory has non-zero probability at time t only
// while its distance function is within 4r of the lower envelope, the
// pruning zone of Section 3.2).
//
// Each node can carry a probability descriptor D_i: min/max and a sampled
// time series of P^NN values computed through the Section 3.1 convolution
// reduction (the processor's Sampler). Removing the root yields the DAG
// whose geometric dual is the family of ranked envelopes (Theorem 2).
package core

import (
	"cmp"
	"context"
	"math"
	"slices"

	"repro/internal/envelope"
	"repro/internal/numeric"
	"repro/internal/pool"
	"repro/internal/queries"
	"repro/internal/updf"
)

// Config tunes tree construction.
type Config struct {
	// MaxLevels caps the tree depth (levels below the root). 0 means
	// unbounded: recursion ends when candidates are exhausted or leave the
	// pruning zone.
	MaxLevels int
	// Descriptors enables per-node probability descriptors.
	Descriptors bool
	// DescriptorSamples is the number of probability samples per node
	// interval (default 5 when Descriptors is set).
	DescriptorSamples int
	// Grid is the integration grid for Eq. 5 when computing descriptors
	// (default uncertain.DefaultGrid).
	Grid int
}

// ProbSample is one descriptor sample: the probability that the node's
// trajectory is the nearest neighbor of the query at time T.
type ProbSample struct {
	T    float64
	Prob float64
}

// Descriptor summarizes the probability behaviour of a node's trajectory
// over the node's interval (the paper's D_i attribute).
type Descriptor struct {
	MinProb, MaxProb float64
	Samples          []ProbSample
}

// Node is one IPAC-NN tree node: trajectory ID, time interval of relevance,
// optional descriptor, and children covering disjoint sub-intervals.
type Node struct {
	ID         int64
	T0, T1     float64
	Level      int
	Descriptor *Descriptor
	Children   []*Node
}

// Tree is the IPAC-NN tree for one continuous probabilistic NN query.
type Tree struct {
	QueryOID int64
	Tb, Te   float64
	R        float64
	// Roots are the level-1 nodes (children of the conceptual root, which
	// carries only the query parameters above).
	Roots []*Node
	// PrunedOIDs lists the objects eliminated by the 4r pruning zone.
	PrunedOIDs []int64
	// KeptOIDs lists the objects that participate in the answer.
	KeptOIDs []int64

	p *queries.Processor
}

// FromProcessor runs Algorithm 3 over the processor's query and window:
// the level-1 nodes are the intervals of p's lower envelope, the kept
// objects are p's UQ31 members and each level is refined recursively
// within their zone rows. pdf is the shared location pdf of the
// descriptors (nil selects the uniform disk of p's radius, making the
// convolved difference pdf the exact uniform◦uniform form). ctx is checked
// before each node's refinement and before every descriptor sample.
func FromProcessor(ctx context.Context, p *queries.Processor, pdf updf.RadialPDF, cfg Config) (*Tree, error) {
	kept := p.KeptFuncs()
	t := &Tree{QueryOID: p.QueryOID, Tb: p.Tb, Te: p.Te, R: p.R, p: p}
	b := &builder{ctx: ctx, cfg: cfg, zone: make(map[int64][]envelope.TimeInterval, len(kept))}
	for _, f := range kept {
		t.KeptOIDs = append(t.KeptOIDs, f.ID)
		b.zone[f.ID], _ = p.PossibleNNIntervals(f.ID) // a UQ31 member is known: no error
	}
	for _, id := range p.CandidateOIDs() {
		if _, ok := b.zone[id]; !ok {
			t.PrunedOIDs = append(t.PrunedOIDs, id)
		}
	}
	if cfg.Descriptors {
		s, err := p.Sampler(queries.ThresholdConfig{PDF: pdf, Grid: cfg.Grid})
		if err != nil {
			return nil, err
		}
		b.sampler, b.samples = s, cfg.DescriptorSamples
		if b.samples <= 0 {
			b.samples = 5
		}
	}
	for _, iv := range p.Envelope().Intervals {
		root, err := b.node(iv, 1)
		if err != nil {
			return nil, err
		}
		t.Roots = append(t.Roots, root)
		if err := b.children(root, kept); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// builder carries one FromProcessor call's state down the recursion: the
// kept objects' zone rows and, with descriptors on, the P^NN sampler.
type builder struct {
	ctx     context.Context
	cfg     Config
	zone    map[int64][]envelope.TimeInterval
	sampler *queries.Sampler
	samples int
}

// node makes the node of one envelope interval, sampling its descriptor.
func (b *builder) node(iv envelope.Interval, level int) (*Node, error) {
	n := &Node{ID: iv.ID, T0: iv.T0, T1: iv.T1, Level: level}
	if b.sampler == nil {
		return n, nil
	}
	ts := numeric.Linspace(n.T0, n.T1, b.samples)
	probs, err := b.sampler.At(b.ctx, ts)
	if err != nil {
		return nil, err
	}
	d := &Descriptor{MinProb: math.Inf(1), MaxProb: math.Inf(-1)}
	for i, at := range probs {
		p := at[n.ID]
		d.Samples = append(d.Samples, ProbSample{T: ts[i], Prob: p})
		d.MinProb = math.Min(d.MinProb, p)
		d.MaxProb = math.Max(d.MaxProb, p)
	}
	n.Descriptor = d
	return n, nil
}

// children populates node's children: the lower envelope, over the node's
// interval, of the candidates that reach the zone inside it, filtered to
// sub-intervals where the defining trajectory still has non-zero NN
// probability (its zone intervals overlap). parent is the candidate list
// node was chosen from — every kept function for a level-1 node — which
// already leaves out the ancestor chain, and which holds every function
// that reaches the zone inside node's (narrower) interval, in the same
// order; so node's own trajectory is the only one left to exclude.
func (b *builder) children(node *Node, parent []*envelope.DistanceFunc) error {
	if b.cfg.MaxLevels > 0 && node.Level >= b.cfg.MaxLevels {
		return nil
	}
	if err := pool.CtxErr(b.ctx); err != nil {
		return err
	}
	var cands []*envelope.DistanceFunc
	for _, f := range parent {
		if f.ID != node.ID && b.overlapsZone(f.ID, node.T0, node.T1) {
			cands = append(cands, f)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	env, err := envelope.LowerEnvelope(cands, node.T0, node.T1)
	if err != nil {
		return nil // a degenerate interval has no refinement
	}
	for _, iv := range env.Intervals {
		if !b.overlapsZone(iv.ID, iv.T0, iv.T1) {
			continue
		}
		child, err := b.node(iv, node.Level+1)
		if err != nil {
			return err
		}
		node.Children = append(node.Children, child)
		if err := b.children(child, cands); err != nil {
			return err
		}
	}
	return nil
}

// overlapsZone reports whether the object's non-zero-probability time set
// intersects [t0, t1] with positive measure.
func (b *builder) overlapsZone(id int64, t0, t1 float64) bool {
	for _, iv := range b.zone[id] {
		if math.Min(iv.T1, t1)-math.Max(iv.T0, t0) > envelope.TimeEps {
			return true
		}
	}
	return false
}

// Walk visits every node depth-first in time order within each level.
func (t *Tree) Walk(visit func(*Node)) {
	var rec func(n *Node)
	rec = func(n *Node) {
		visit(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	for _, r := range t.Roots {
		rec(r)
	}
}

// NodeCount returns the number of nodes below the root — the tree's
// combinatorial complexity, bounded by O(⌈N/K⌉²) per Theorem 2.
func (t *Tree) NodeCount() int {
	n := 0
	t.Walk(func(*Node) { n++ })
	return n
}

// Depth returns the maximum level present.
func (t *Tree) Depth() int {
	d := 0
	t.Walk(func(n *Node) {
		if n.Level > d {
			d = n.Level
		}
	})
	return d
}

// NodesAtLevel returns the nodes at the given level (1-based), in time
// order within each parent.
func (t *Tree) NodesAtLevel(level int) []*Node {
	var out []*Node
	t.Walk(func(n *Node) {
		if n.Level == level {
			out = append(out, n)
		}
	})
	return out
}

// AnswerAt returns the highest-probability nearest neighbor at time tm
// (the level-1 envelope's trajectory), mirroring the time-parameterized
// answer A_nn of Section 1.
func (t *Tree) AnswerAt(tm float64) int64 { return t.p.Envelope().IDAt(tm) }

// RankedAt returns up to k trajectory IDs in descending NN-probability
// order at time tm, read off the distance ranking (Theorem 1), restricted
// to objects with non-zero probability somewhere in the window. Ties keep
// OID order.
func (t *Tree) RankedAt(tm float64, k int) []int64 {
	fns := t.p.KeptFuncs()
	slices.SortStableFunc(fns, func(a, b *envelope.DistanceFunc) int { return cmp.Compare(a.Value(tm), b.Value(tm)) })
	out := make([]int64, min(k, len(fns)))
	for i := range out {
		out[i] = fns[i].ID
	}
	return out
}
