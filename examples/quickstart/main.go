// Quickstart: build a small MOD of uncertain trajectories, answer
// continuous probabilistic NN queries through the unified Request/Result
// API, and inspect the IPAC-NN tree — the minimal end-to-end tour of the
// public API.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	// A MOD whose objects all share the paper's default uncertainty model:
	// a uniform location pdf inside a disk of radius 0.5 miles.
	store, err := repro.NewUniformStore(0.5)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's evaluation workload: random waypoint over 40×40 mi²,
	// speeds in [15, 60] mph, 60 minutes of motion.
	trs, err := repro.GenerateWorkload(repro.DefaultWorkload(42), 500)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		log.Fatal(err)
	}

	// Every query is a Request; every answer is a Result carrying its own
	// Explain provenance. A batch against one (query, window) pays the
	// envelope preprocessing once; cancel ctx to stop a batch early.
	eng := repro.NewEngine(0) // one worker per CPU
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	results, err := eng.DoBatch(ctx, store, []repro.Request{
		// Who can be the nearest neighbor of object 1 during the hour? (UQ31)
		{Kind: repro.KindUQ31, QueryOID: 1, Tb: 0, Te: 60},
		// Who can be nearest at least half the hour? (UQ33)
		{Kind: repro.KindUQ33, QueryOID: 1, Tb: 0, Te: 60, X: 0.5},
		// Who can be among the two most probable NNs at some point? (UQ41)
		{Kind: repro.KindUQ41, QueryOID: 1, Tb: 0, Te: 60, K: 2},
		// Can object 2 ever be the NN? (UQ11)
		{Kind: repro.KindUQ11, QueryOID: 1, Tb: 0, Te: 60, OID: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		answer := fmt.Sprint(res.OIDs)
		if res.IsBool {
			answer = fmt.Sprint(res.Bool)
		}
		fmt.Printf("%-9s → %-40s (%d/%d candidates survived pruning, %v)\n",
			res.Kind, answer, res.Explain.Survivors, res.Explain.Candidates, res.Explain.Wall.Round(time.Microsecond))
	}

	// The IPAC-NN tree is the time-parameterized answer structure behind
	// those retrievals (Section 1's A_nn sequence = the level-1 nodes).
	q, err := store.Get(1)
	if err != nil {
		log.Fatal(err)
	}
	tree, err := repro.BuildIPACNN(store.All(), q, 0, 60, store.Radius(), nil,
		repro.TreeConfig{MaxLevels: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nIPAC-NN tree: %d nodes, depth %d; %d of %d objects pruned by the 4r zone\n",
		tree.NodeCount(), tree.Depth(), len(tree.PrunedOIDs), store.Len()-1)
	fmt.Println("\nhighest-probability nearest neighbor over time:")
	for _, n := range tree.NodesAtLevel(1) {
		fmt.Printf("  [%6.2f, %6.2f] min  →  Tr%d\n", n.T0, n.T1, n.ID)
	}
	fmt.Printf("\ntop-3 probable NNs at t=30: %v\n", tree.RankedAt(30, 3))

	// The same question, declaratively: UQL statements compile to the very
	// same Request and run through the same engine route.
	req, err := repro.CompileUQL(
		"SELECT T FROM MOD WHERE ATLEAST 50% Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0")
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	res, err := eng.Do(ctx, store, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nobjects possibly-NN at least half the hour: %v\n", res.OIDs)
}
