// Fleetwatch: the commercial-fleet scenario of the paper's Section 2.1
// (FedEx/UPS-style full-trajectory motion plans). Dispatch plans trips
// through waypoints server-side, then continuously monitors which vans can
// be the closest backup to a priority vehicle — with GPS uncertainty taken
// into account — and inspects the probability descriptors of the top
// candidates.
//
// With -shards N the same dashboard refresh also runs through a sharded
// cluster router (N in-process hash-partitioned shards): answers must be
// identical to the single engine — the tag-filtered row included, since
// shard splits carry tag sets — the two-phase NN bound exchange keeps
// the global envelope semantics — and the merged Explain shows which
// shard contributed which survivors.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/geom"
	"repro/internal/mod"
)

func main() {
	shards := flag.Int("shards", 3, "also run the dashboard batch through a cluster of this many local shards (0 disables)")
	flag.Parse()
	// Fleet-wide uncertainty: every van's reported position is within
	// 0.25 miles of its true one, uniformly distributed.
	store, err := repro.NewUniformStore(0.25)
	if err != nil {
		log.Fatal(err)
	}

	// Dispatch plans trips at a constant cruise speed of 0.5 mi/min
	// (30 mph): the server-side shortest-travel-time construction of
	// Section 2.1.
	routes := [][]geom.Point{
		{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 20, Y: 10}}, // van 1 (priority)
		{{X: 2, Y: 1}, {X: 12, Y: 1}, {X: 12, Y: 12}},                 // van 2 shadows van 1
		{{X: 0, Y: 20}, {X: 10, Y: 12}, {X: 18, Y: 12}},               // van 3 converges late
		{{X: 30, Y: 30}, {X: 38, Y: 38}},                              // van 4 far away
		{{X: 5, Y: -8}, {X: 12, Y: -2}, {X: 14, Y: 8}},                // van 5 approaches mid-shift
	}
	for i, wps := range routes {
		tr, err := mod.PlanTrip(int64(i+1), wps, 0, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		if err := store.Insert(tr); err != nil {
			log.Fatal(err)
		}
	}

	// The trips end at different times; monitor the window they all cover.
	tb, te := 0.0, shortestSpan(store)
	fmt.Printf("monitoring window: [%g, %.2f] minutes\n\n", tb, te)

	q, err := store.Get(1)
	if err != nil {
		log.Fatal(err)
	}
	eng := repro.NewEngine(0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	proc, err := eng.ProcessorWhereCtx(ctx, store, q.OID, tb, te, nil)
	if err != nil {
		log.Fatal(err)
	}
	tree, err := repro.BuildIPACNN(ctx, proc, nil,
		repro.TreeConfig{MaxLevels: 2, Descriptors: true, DescriptorSamples: 3})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("closest-backup schedule for van 1 (with NN-probability bounds):")
	for _, n := range tree.NodesAtLevel(1) {
		fmt.Printf("  [%6.2f, %6.2f] van %d  P(NN) ∈ [%.2f, %.2f]\n",
			n.T0, n.T1, n.ID, n.Descriptor.MinProb, n.Descriptor.MaxProb)
		for _, c := range n.Children {
			fmt.Printf("      runner-up [%6.2f, %6.2f] van %d  P(NN) ∈ [%.2f, %.2f]\n",
				c.T0, c.T1, c.ID, c.Descriptor.MinProb, c.Descriptor.MaxProb)
		}
	}
	if len(tree.PrunedOIDs) > 0 {
		fmt.Printf("\nvans that can never be the closest backup: %v\n", tree.PrunedOIDs)
	}

	// Vans carry attribute tags: 2, 3 and 5 are certified to take over a
	// priority route; van 3 alone is refrigerated. The dashboard's
	// spatio-textual row answers over the certified sub-fleet only.
	for oid, tags := range map[int64][]string{
		2: {"certified"}, 3: {"certified", "refrigerated"}, 5: {"certified"},
	} {
		if err := store.SetTags(oid, tags); err != nil {
			log.Fatal(err)
		}
	}

	// Dispatch's dashboard refreshes several views of the same window at
	// once — which vans could ever be closest (UQ31), which at least a
	// quarter of the shift (UQ33), which can rank top-2 throughout
	// (UQ42), and which *certified* vans could ever be closest (the
	// spatio-textual row). Run them as one batch through the unified API: the envelope
	// preprocessing is paid once, the per-van checks run in parallel, and
	// the dashboard's refresh deadline rides in on the context.
	certified := &repro.Predicate{All: []string{"certified"}}
	dashboard := []repro.Request{
		{Kind: repro.KindUQ31, QueryOID: q.OID, Tb: tb, Te: te},
		{Kind: repro.KindUQ33, QueryOID: q.OID, Tb: tb, Te: te, X: 0.25},
		{Kind: repro.KindUQ42, QueryOID: q.OID, Tb: tb, Te: te, K: 2},
		{Kind: repro.KindUQ31, QueryOID: q.OID, Tb: tb, Te: te, Where: certified},
	}
	results, err := eng.DoBatch(ctx, store, dashboard)
	if err != nil {
		log.Fatal(err)
	}
	labels := []string{
		"vans ever possibly-closest",
		"vans possibly-closest >= 25% of the shift",
		"vans possibly top-2 for the whole shift",
		"certified vans ever possibly-closest",
	}
	for i, label := range labels {
		if results[i].Err != nil {
			log.Fatal(results[i].Err)
		}
		fmt.Printf("\n%s: %v  (evaluated in %v)\n", label, results[i].OIDs,
			results[i].Explain.Wall.Round(time.Microsecond))
	}

	if *shards > 1 {
		// The same refresh, served by a sharded cluster: the store splits
		// into hash partitions, NN retrievals run the two-phase bound
		// exchange, and the router's central refinement returns answers
		// identical to the single engine above.
		router, err := repro.NewCluster(store, *shards, repro.ClusterOptions{})
		if err != nil {
			log.Fatal(err)
		}
		routed, err := router.DoBatch(ctx, dashboard)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n-- same dashboard via %d shards --\n", *shards)
		for i, label := range labels {
			if routed[i].Err != nil {
				log.Fatal(routed[i].Err)
			}
			match := "IDENTICAL"
			if fmt.Sprint(routed[i].OIDs) != fmt.Sprint(results[i].OIDs) {
				match = "DIVERGED (bug!)"
			}
			fmt.Printf("%s: %v  [%s]\n", label, routed[i].OIDs, match)
		}
		ex := routed[0].Explain
		fmt.Printf("merged explain: %d shards, per-shard (candidates→survivors):", ex.Shards)
		for si, se := range ex.ShardExplains {
			fmt.Printf(" s%d:%d→%d", si, se.Candidates, se.Survivors)
		}
		fmt.Println()
	}
}

// shortestSpan returns the earliest trip end so the query window is
// covered by every trajectory.
func shortestSpan(store *repro.Store) float64 {
	te := -1.0
	for _, tr := range store.All() {
		_, e := tr.TimeSpan()
		if te < 0 || e < te {
			te = e
		}
	}
	return te
}
