// Airtraffic: separation monitoring with filed flight plans. Aircraft fly
// piecewise-linear routes (full-trajectory motion plans) with radar
// uncertainty; the monitor uses the instantaneous probability machinery of
// Sections 2.2/3.1 directly — within-distance probabilities, the
// convolution reduction for two uncertain positions, and a Monte-Carlo-free
// exact ranking — alongside the continuous IPAC-NN view.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/uncertain"
	"repro/internal/updf"
)

func main() {
	// Radar uncertainty: positions known to within 1 unit, uniformly.
	const r = 1.0
	store, err := repro.NewUniformStore(r)
	if err != nil {
		log.Fatal(err)
	}

	// Filed plans (distance units are nautical-mile-scale grid units,
	// times in minutes).
	plans := []struct {
		oid   int64
		verts []repro.Vertex
	}{
		{1, []repro.Vertex{{X: 0, Y: 0, T: 0}, {X: 60, Y: 0, T: 30}}},    // subject flight
		{2, []repro.Vertex{{X: 10, Y: 12, T: 0}, {X: 50, Y: 2, T: 30}}},  // converging
		{3, []repro.Vertex{{X: 60, Y: 8, T: 0}, {X: 0, Y: 6, T: 30}}},    // opposite direction
		{4, []repro.Vertex{{X: 30, Y: 40, T: 0}, {X: 35, Y: 38, T: 30}}}, // distant loiter
	}
	for _, p := range plans {
		tr, err := repro.NewTrajectory(p.oid, p.verts)
		if err != nil {
			log.Fatal(err)
		}
		if err := store.Insert(tr); err != nil {
			log.Fatal(err)
		}
	}

	q, err := store.Get(1)
	if err != nil {
		log.Fatal(err)
	}

	// Continuous view: which aircraft can be flight 1's nearest neighbor,
	// and when? The engine's processor gives interval-level access on top
	// of the unified Request route.
	proc, err := repro.NewEngine(0).ProcessorWhereCtx(context.Background(), store, q.OID, 0, 30, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("possible nearest aircraft to flight 1 over [0, 30] min:")
	for _, oid := range proc.UQ31() {
		ivs, err := proc.PossibleNNIntervals(oid)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  flight %d during %v\n", oid, ivs)
	}

	// Instantaneous probabilistic picture at the closest approach: both
	// positions are uncertain, so the within-distance law is governed by
	// the convolved pdf (Section 3.1). The exact uniform◦uniform
	// convolution has support 2r.
	const tClosest = 15.0
	qPos := q.At(tClosest)
	var cands []uncertain.Candidate
	for _, tr := range store.All() {
		if tr.OID == q.OID {
			continue
		}
		cands = append(cands, uncertain.Candidate{ID: tr.OID, Dist: tr.At(tClosest).Dist(qPos)})
	}
	conv := updf.NewUniformConv(r, r)
	probs := uncertain.NNProbabilities(conv, cands, 1024)
	fmt.Printf("\nP(nearest | t = %g):\n", tClosest)
	for _, c := range uncertain.RankByDistance(cands) {
		fmt.Printf("  flight %d at distance %6.2f → %.4f\n", c.ID, c.Dist, probs[c.ID])
	}

	// Proximity alert: probability that flight 2 is within 5 units of
	// flight 1 at closest approach (Eq. 3 against the convolved pdf).
	d2 := cands[0].Dist
	for _, c := range cands {
		if c.ID == 2 {
			d2 = c.Dist
		}
	}
	pWithin := uncertain.WithinDistanceProb(conv, d2, 5)
	fmt.Printf("\nP(flight 2 within 5 units of flight 1 at t=%g) = %.4f\n", tClosest, pWithin)

	// And the full interval tree for the record.
	tree, err := repro.BuildIPACNN(context.Background(), proc, nil, repro.TreeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nIPAC-NN: %d nodes, depth %d, pruned flights %v\n",
		tree.NodeCount(), tree.Depth(), tree.PrunedOIDs)
}
