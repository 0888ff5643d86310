// Rideshare: matching riders to nearby drivers under position uncertainty,
// exercising the Section 7 extension surface of the library — threshold NN
// queries ("which drivers are >= 50% likely to be closest for at least 5%
// of the hour?"), guaranteed-NN intervals, reverse NN ("which riders might
// driver 2 be closest to?"), and spatio-textual dispatch (tag predicates
// restricting a query to the available non-pool sub-fleet, with live
// duty-status flips).
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	"repro"
)

func main() {
	const r = 0.4 // default GPS uncertainty, miles
	store, err := repro.NewUniformStore(r)
	if err != nil {
		log.Fatal(err)
	}
	trs, err := repro.GenerateWorkload(repro.DefaultWorkload(99), 40)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		log.Fatal(err)
	}
	rider, err := store.Get(1)
	if err != nil {
		log.Fatal(err)
	}

	// The memoized, index-pruned processor behind the unified API gives
	// interval-level access beyond what a Request expresses.
	eng := repro.NewEngine(0)
	proc, err := eng.ProcessorWhereCtx(context.Background(), store, rider.OID, 0, 60, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Threshold query (paper §7: "more than 65% probability ... within 50%
	// of the time" — here 50% probability for at least 5% of the hour,
	// appropriate for a 40-driver field where the closest role rotates),
	// and each match's peak: reads of one table of every driver's P^NN.
	table, err := proc.ProbabilityTable(context.Background(), repro.ThresholdConfig{TimeSamples: 48, Grid: 384})
	if err != nil {
		log.Fatal(err)
	}
	matches, err := table.ThresholdNNAll(0.50, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drivers >= 50%% likely closest for >= 5%% of the hour: %v\n", matches)
	for _, oid := range matches {
		probs, err := table.Series(oid)
		if err != nil {
			log.Fatal(err)
		}
		peak := slices.Index(probs, slices.Max(probs))
		fmt.Printf("  driver %d peaks at P=%.2f around t=%.1f min\n", oid, probs[peak], table.Times[peak])
	}

	// Guaranteed assignment windows: when is some driver *certainly*
	// closest, no matter how the uncertainty resolves?
	fmt.Println("\nguaranteed-closest windows:")
	for _, oid := range proc.UQ31() {
		ivs, err := proc.GuaranteedNNIntervals(oid)
		if err != nil {
			log.Fatal(err)
		}
		if len(ivs) > 0 {
			fmt.Printf("  driver %d: %v\n", oid, ivs)
		}
	}

	// Reverse view: for which riders could driver 2 be the closest? One
	// Request through the same engine.
	rev, err := eng.Do(context.Background(), store, repro.Request{
		Kind: repro.KindReverse, Tb: 0, Te: 60, OID: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndriver 2 could be the closest option for riders: %v\n", rev.OIDs)

	// Spatio-textual dispatch: drivers carry attribute tags (duty status,
	// vehicle class), and a tag predicate on the Request restricts the
	// answer to the matching sub-fleet — byte-identical to querying a
	// store holding only those drivers. Here: who can be closest among
	// available drivers that are not pool vehicles?
	for _, tr := range trs {
		var tags []string
		if tr.OID%2 == 0 {
			tags = append(tags, "available")
		}
		if tr.OID%5 == 0 {
			tags = append(tags, "pool")
		}
		if tags != nil {
			if err := store.SetTags(tr.OID, tags); err != nil {
				log.Fatal(err)
			}
		}
	}
	where := &repro.Predicate{All: []string{"available"}, Not: []string{"pool"}}
	avail, err := eng.Do(context.Background(), store, repro.Request{
		Kind: repro.KindUQ31, QueryOID: rider.OID, Tb: 0, Te: 60, Where: where,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\navailable non-pool drivers who can be closest: %v\n", avail.OIDs)
	fmt.Printf("  (the predicate narrowed %d spatial candidates to %d tagged ones)\n",
		avail.Explain.SpatialCandidates, avail.Explain.TextualCandidates)

	// Driver 3 comes on duty: a pure tag flip — no motion change — and the
	// filtered view updates on the next evaluation.
	onDuty := []string{"available"}
	if _, err := store.ApplyUpdates([]repro.Update{{OID: 3, Tags: &onDuty}}); err != nil {
		log.Fatal(err)
	}
	after, err := eng.Do(context.Background(), store, repro.Request{
		Kind: repro.KindUQ31, QueryOID: rider.OID, Tb: 0, Te: 60, Where: where,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after driver 3 comes on duty: %v\n", after.OIDs)
}
