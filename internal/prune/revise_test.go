package prune_test

// Revise's contract, checked at the processor: whenever it continues a
// seed, the successor must answer every query variant — the maintained
// rank, deeper ranks through the lazily opened sweep, the certain-NN
// extension through the lazy full build, unknown OIDs — exactly as a
// full-scan processor over the store's current contents does, batch after
// batch, seed after seed.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/simtest"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

func TestSuccessorEquivalence(t *testing.T) {
	ctx := context.Background()
	avail := &textidx.Predicate{All: []string{"available"}}
	for _, tc := range []struct {
		name  string
		k     int
		where *textidx.Predicate
	}{{"rank1", 1, nil}, {"rank2", 2, nil}, {"rank1-filtered", 1, avail}, {"rank2-filtered", 2, avail}} {
		t.Run(tc.name, func(t *testing.T) {
			const steps = 30
			w, err := simtest.NewWorld(simtest.Config{Seed: 77, N: 300, Held: 4, R: 0.5, Steps: steps, PerStep: 4, Retire: 1, Protect: 20})
			if err != nil {
				t.Fatal(err)
			}
			store, err := w.InitialStore()
			if err != nil {
				t.Fatal(err)
			}
			qOID := w.ProtectedOIDs()[3]
			const tb, te = 35.0, 50.0
			where, err := tc.where.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			scratch := func() (*queries.Processor, *prune.Seed) {
				q, err := store.Get(qOID)
				if err != nil {
					t.Fatal(err)
				}
				proc, err := prune.ForQueryWhereCtx(ctx, nil, store, q, tb, te, where)
				if err != nil {
					t.Fatal(err)
				}
				if err := proc.EnsureLevelsCtx(ctx, tc.k); err != nil {
					t.Fatal(err)
				}
				if _, err := proc.UQ41(tc.k); err != nil { // fill the rank's zone rows, as an evaluation would
					t.Fatal(err)
				}
				return proc, prune.SeedOf(ctx, proc, tc.k, where)
			}
			_, seed := scratch()
			if seed == nil {
				t.Fatal("no seed behind a fresh pruned processor")
			}
			verdicts := map[prune.Verdict]int{}
			for step := 0; step < steps; step++ {
				batch, err := w.StepSized(4, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				applied, err := store.ApplyUpdates(batch)
				if err != nil {
					t.Fatal(err)
				}
				succ, version, verdict := prune.Revise(ctx, store, seed, applied)
				verdicts[verdict]++
				if verdict != prune.Patched {
					_, seed = scratch()
					continue
				}
				if version != store.Version() {
					t.Fatalf("step %d: successor at version %d, store at %d", step, version, store.Version())
				}
				// The full-scan reference over the (sub-)MOD as it stands.
				q, _ := store.Get(qOID)
				var universe []*trajectory.Trajectory
				for _, tr := range store.All() {
					if tr.OID == qOID || where == nil || where.Matches(store.Tags(tr.OID)) {
						universe = append(universe, tr)
					}
				}
				full, err := queries.NewProcessor(universe, q, tb, te, store.Radius())
				if err != nil {
					t.Fatal(err)
				}
				label := tc.name + " step " + string(rune('A'+step))
				if !reflect.DeepEqual(full.CandidateOIDs(), succ.CandidateOIDs()) || full.CandidateCount() != succ.CandidateCount() {
					t.Fatalf("%s: candidate domains differ (%d vs %d)", label, full.CandidateCount(), succ.CandidateCount())
				}
				// The next seed is taken the way the hub takes it, after the
				// request's own evaluation — on even steps before anyone asks
				// for more, on odd ones after one-shot queries have grown the
				// successor's basis to rank 3 and rebuilt its levels over it.
				if _, err := succ.UQ41(tc.k); err != nil {
					t.Fatal(err)
				}
				if step%2 == 0 {
					seed = prune.SeedOf(ctx, succ, tc.k, where)
				}
				checkEquivalence(t, full, succ, full.CandidateOIDs(), []int{1, 2, 3}, label)
				if step%2 == 1 {
					seed = prune.SeedOf(ctx, succ, tc.k, where)
				}
				if seed == nil {
					t.Fatalf("%s: a successor left no seed", label)
				}
				for _, oid := range succ.SurvivorOIDs()[:3] {
					a, ea := full.GuaranteedNNIntervals(oid)
					b, eb := succ.GuaranteedNNIntervals(oid)
					if (ea == nil) != (eb == nil) || !reflect.DeepEqual(a, b) {
						t.Fatalf("%s: certain-NN intervals of %d differ: %v (%v) vs %v (%v)", label, oid, a, ea, b, eb)
					}
				}
			}
			if verdicts[prune.Patched] < steps/3 {
				t.Fatalf("only %d of %d batches were continued: %v", verdicts[prune.Patched], steps, verdicts)
			}
			t.Logf("verdicts: %v", verdicts)
		})
	}
}

// TestReviseRefusals: the verdicts that are not reachable through a
// scripted world.
func TestReviseRefusals(t *testing.T) {
	ctx := context.Background()
	store, trs := buildStore(t, 120, 0.5, 5)
	q := trs[0]
	if _, _, v := prune.Revise(ctx, store, nil, nil); v != prune.NoSeed {
		t.Fatalf("nil seed: %v", v)
	}
	full, err := queries.NewProcessor(store.All(), q, 10, 30, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	if prune.SeedOf(ctx, full, 1, nil) != nil {
		t.Fatal("a full-scan processor has no pre-pass to seed from")
	}
	proc, err := prune.ForQueryWhereCtx(ctx, nil, store, q, 10, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prune.SeedOf(ctx, proc, 2, nil) != nil {
		t.Fatal("rank 2 was never built: no seed at that rank")
	}
	seed := prune.SeedOf(ctx, proc, 1, nil)
	if seed == nil {
		t.Fatal("no rank-1 seed")
	}
	// An object revised to a plan that ends inside the window: the
	// from-scratch path must be the one to fail.
	pruned := trs[len(trs)-1]
	for _, tr := range trs[1:] {
		if ok, _ := proc.UQ11(tr.OID); !ok {
			pruned = tr
			break
		}
	}
	if _, err := store.ApplyUpdates([]mod.Update{{OID: pruned.OID, Retire: true}}); err != nil {
		t.Fatal(err)
	}
	short, err := trajectory.New(pruned.OID, []trajectory.Vertex{{X: 500, Y: 500, T: 0}, {X: 501, Y: 500, T: 20}})
	if err != nil {
		t.Fatal(err)
	}
	applied, err := store.ApplyUpdates([]mod.Update{{OID: short.OID, Verts: short.Verts}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, v := prune.Revise(ctx, store, seed, applied); v != prune.Uncovered {
		t.Fatalf("a plan ending inside the window: %v", v)
	}
	if _, err := prune.ForQueryWhereCtx(ctx, nil, store, q, 10, 30, nil); err == nil {
		t.Fatal("the from-scratch build accepted a plan that does not cover the window")
	}
	// The query object retired: nothing to measure distances from.
	applied, err = store.ApplyUpdates([]mod.Update{{OID: q.OID, Retire: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, v := prune.Revise(ctx, store, seed, applied); v != prune.QueryMoved {
		t.Fatalf("retired query: %v", v)
	}
	for v := prune.Verdict(0); v < prune.Verdicts; v++ {
		if v.String() == "" {
			t.Fatalf("verdict %d has no name", v)
		}
	}
}
