// Rideshare: matching riders to nearby drivers under position uncertainty,
// exercising the Section 7 extension surface of the library — threshold NN
// queries ("which drivers are >= 40% likely to be closest at least a third
// of the window?"), guaranteed-NN intervals, reverse NN ("which riders
// might driver 2 be closest to?"), mutual pairs, heterogeneous uncertainty
// radii (downtown GPS is worse), top-k membership probabilities, and
// spatio-textual dispatch (tag predicates restricting a query to the
// available non-pool sub-fleet, with live duty-status flips).
package main

import (
	"context"
	"fmt"
	"log"

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
	// appropriate for a 40-driver field where the closest role rotates).
	cfg := repro.ThresholdConfig{TimeSamples: 48, Grid: 384}
	matches, err := proc.ThresholdNNAll(context.Background(), 0.50, 0.05, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drivers >= 50%% likely closest for >= 5%% of the hour: %v\n", matches)
	for _, oid := range matches {
		tAt, p, err := proc.MaxProbability(context.Background(), oid, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  driver %d peaks at P=%.2f around t=%.1f min\n", oid, p, tAt)
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

	// Heterogeneous uncertainty: downtown units (odd OIDs) have 3x worse
	// GPS. Who can be closest to the rider now?
	radii := make(map[int64]float64, len(trs))
	for _, tr := range trs {
		if tr.OID%2 == 1 {
			radii[tr.OID] = 3 * r
		} else {
			radii[tr.OID] = r
		}
	}
	hp, err := repro.NewHeteroQueryProcessor(store.All(), rider, 0, 60, radii)
	if err != nil {
		log.Fatal(err)
	}
	ids, err := hp.UQ31()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith heterogeneous GPS quality, possible-closest drivers: %v\n", ids)

	// Instantaneous top-3 membership probabilities at t = 30 (dispatch
	// shortlist with confidence levels).
	q30 := rider.At(30)
	var cands []repro.Candidate
	for _, tr := range store.All() {
		if tr.OID == rider.OID {
			continue
		}
		cands = append(cands, repro.Candidate{ID: tr.OID, Dist: tr.At(30).Dist(q30)})
	}
	conv, err := repro.Convolve(repro.UniformDiskPDF(r), repro.UniformDiskPDF(r))
	if err != nil {
		log.Fatal(err)
	}
	top3 := repro.KNNProbabilities(conv, cands, 3)
	fmt.Println("\nP(in dispatch top-3) at t=30, for drivers with > 1% chance:")
	for id, p := range top3 {
		if p > 0.01 {
			fmt.Printf("  driver %d: %.3f\n", id, p)
		}
	}
}
