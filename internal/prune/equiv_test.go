package prune_test

// The conservative-correctness gate of the index-accelerated pruning
// layer: a pruned processor must return byte-identical answers to the
// full-scan processor for every UQ11..UQ43 variant, the fixed-time
// instant predicates, and the guaranteed-NN extension, across radii,
// windows, and ranks. Run under -race this also exercises the pruned
// processor's lazy full-build path concurrently.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

func buildStore(t *testing.T, n int, r float64, seed int64) (*mod.Store, []*trajectory.Trajectory) {
	t.Helper()
	trs, err := workload.Generate(workload.DefaultConfig(seed), n)
	if err != nil {
		t.Fatal(err)
	}
	store, err := mod.NewUniformStore(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	return store, trs
}

// checkEquivalence compares every query variant between the two processors.
func checkEquivalence(t *testing.T, full, pruned *queries.Processor, oids []int64, ks []int, label string) {
	t.Helper()
	mustEq := func(what string, a, b any, errA, errB error) {
		t.Helper()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s %s: full err=%v, pruned err=%v", label, what, errA, errB)
		}
		if errA != nil {
			return
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s %s: full=%v pruned=%v", label, what, a, b)
		}
	}

	// Whole-MOD retrievals (Categories 3 and 4).
	mustEq("UQ31", full.UQ31(), pruned.UQ31(), nil, nil)
	mustEq("UQ32", full.UQ32(), pruned.UQ32(), nil, nil)
	for _, x := range []float64{0, 0.25, 0.9} {
		a, ea := full.UQ43(1, x)
		b, eb := pruned.UQ43(1, x)
		mustEq("UQ33", a, b, ea, eb)
	}
	for _, k := range ks {
		a, ea := full.UQ41(k)
		b, eb := pruned.UQ41(k)
		mustEq("UQ41", a, b, ea, eb)
		a, ea = full.UQ42(k)
		b, eb = pruned.UQ42(k)
		mustEq("UQ42", a, b, ea, eb)
		a, ea = full.UQ43(k, 0.3)
		b, eb = pruned.UQ43(k, 0.3)
		mustEq("UQ43", a, b, ea, eb)
	}

	// Per-object predicates (Categories 1 and 2) over a sample that always
	// includes pruned candidates (the sample spans the whole OID range).
	sample := oids
	if len(sample) > 60 {
		step := len(sample) / 60
		var s []int64
		for i := 0; i < len(sample); i += step {
			s = append(s, sample[i])
		}
		sample = s
	}
	tf := 0.5 * (full.Tb + full.Te)
	for _, oid := range sample {
		a, ea := full.PossibleNNIntervals(oid)
		b, eb := pruned.PossibleNNIntervals(oid)
		mustEq("PossibleNNIntervals", a, b, ea, eb)

		ba, ea := full.UQ11(oid)
		bb, eb := pruned.UQ11(oid)
		mustEq("UQ11", ba, bb, ea, eb)
		ba, ea = full.UQ12(oid)
		bb, eb = pruned.UQ12(oid)
		mustEq("UQ12", ba, bb, ea, eb)
		ba, ea = full.UQ13(oid, 0.4)
		bb, eb = pruned.UQ13(oid, 0.4)
		mustEq("UQ13", ba, bb, ea, eb)
		ba, ea = full.UQ13(oid, 0)
		bb, eb = pruned.UQ13(oid, 0)
		mustEq("UQ13(0)", ba, bb, ea, eb)

		ba, ea = full.IsPossibleNNAt(oid, tf)
		bb, eb = pruned.IsPossibleNNAt(oid, tf)
		mustEq("IsPossibleNNAt", ba, bb, ea, eb)

		for _, k := range ks {
			ba, ea = full.UQ21(oid, k)
			bb, eb = pruned.UQ21(oid, k)
			mustEq("UQ21", ba, bb, ea, eb)
			ba, ea = full.UQ23(oid, k, 0.2)
			bb, eb = pruned.UQ23(oid, k, 0.2)
			mustEq("UQ23", ba, bb, ea, eb)
			ba, ea = full.IsPossibleRankKAt(oid, tf, k)
			bb, eb = pruned.IsPossibleRankKAt(oid, tf, k)
			mustEq("IsPossibleRankKAt", ba, bb, ea, eb)
		}
	}

	// Fixed-time retrievals.
	for _, k := range ks {
		a, ea := full.PossibleRankKAt(tf, k)
		b, eb := pruned.PossibleRankKAt(tf, k)
		mustEq("PossibleRankKAt", a, b, ea, eb)
	}

	// Unknown OIDs must error identically.
	if _, errA := full.UQ11(-99); errA == nil {
		t.Fatalf("%s: full UQ11(-99) did not error", label)
	}
	if _, errB := pruned.UQ11(-99); errB == nil {
		t.Fatalf("%s: pruned UQ11(-99) did not error", label)
	}
}

// TestPrunedEquivalenceSweep runs the equivalence gate across radii,
// windows, and query trajectories at a moderate population.
func TestPrunedEquivalenceSweep(t *testing.T) {
	ks := []int{1, 2, 3, 5}
	for _, cfg := range []struct {
		n      int
		r      float64
		tb, te float64
		seed   int64
	}{
		{300, 0.1, 0, 60, 1},
		{300, 0.5, 10, 35, 2},
		{300, 2.0, 0, 60, 3},
		{150, 0.5, 25, 26, 4}, // sliver window
	} {
		store, trs := buildStore(t, cfg.n, cfg.r, cfg.seed)
		for _, qi := range []int{0, cfg.n / 2} {
			q := trs[qi]
			full, err := queries.NewProcessor(store.All(), q, cfg.tb, cfg.te, store.Radius())
			if err != nil {
				t.Fatal(err)
			}
			pruned, err := prune.ForQueryWhereCtx(context.Background(), nil, store, q, cfg.tb, cfg.te, nil)
			if err != nil {
				t.Fatal(err)
			}
			if pruned.PrunedCount() == 0 && cfg.r < 1 {
				t.Logf("n=%d r=%g: nothing pruned (bound loose but sound)", cfg.n, cfg.r)
			}
			label := map[bool]string{true: "q-mid", false: "q-first"}[qi != 0]
			checkEquivalence(t, full, pruned,
				full.CandidateOIDs(), ks,
				label)
			// The pruned processor must also report the same candidate
			// domain the batch engine shards over.
			if !reflect.DeepEqual(full.CandidateOIDs(), pruned.CandidateOIDs()) {
				t.Fatalf("candidate OID domains differ")
			}
		}
	}
}

// TestPrunedEquivalenceLarge is the 1000-trajectory gate of the issue:
// byte-identical whole-MOD retrievals at MOD scale, including the ranked
// variants that trigger the lazy full build.
func TestPrunedEquivalenceLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	store, trs := buildStore(t, 1000, 0.5, 2009)
	q := trs[0]
	full, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := prune.ForQueryWhereCtx(context.Background(), nil, store, q, 0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.PrunedCount() == 0 {
		t.Fatalf("index pre-pass pruned nothing at N=1000, r=0.5")
	}
	checkEquivalence(t, full, pruned, full.CandidateOIDs(), []int{1, 2, 4}, "large")
}

// TestPrunedConcurrentLazyBuild hammers a pruned processor from many
// goroutines, mixing Level-1 queries with rank-k ones that race to trigger
// the lazy full build. Run with -race this is the concurrency gate.
func TestPrunedConcurrentLazyBuild(t *testing.T) {
	store, trs := buildStore(t, 200, 0.5, 7)
	pruned, err := prune.ForQueryWhereCtx(context.Background(), nil, store, trs[0], 0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := queries.NewProcessor(store.All(), trs[0], 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	wantUQ31 := full.UQ31()
	wantUQ41, err := full.UQ41(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if w%2 == 0 {
					if got := pruned.UQ31(); !reflect.DeepEqual(got, wantUQ31) {
						errs <- "UQ31 diverged under concurrency"
						return
					}
				} else {
					got, err := pruned.UQ41(3)
					if err != nil {
						errs <- err.Error()
						return
					}
					if !reflect.DeepEqual(got, wantUQ41) {
						errs <- "UQ41 diverged under concurrency"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestPrunedStoreMutationInvalidatesIndex verifies the version-aware index
// maintenance end to end: a store mutation after a pruned query must be
// visible to the next pruned query (fresh index, fresh survivors).
func TestPrunedStoreMutationInvalidatesIndex(t *testing.T) {
	store, trs := buildStore(t, 120, 0.5, 11)
	q := trs[0]
	if _, err := prune.ForQueryWhereCtx(context.Background(), nil, store, q, 0, 60, nil); err != nil {
		t.Fatal(err)
	}
	v1 := store.IndexVersion()

	// Drop an object, then plant a new one that shadows the query path:
	// it must appear in the next UQ31.
	if _, err := store.ApplyUpdates([]mod.Update{{OID: trs[50].OID, Retire: true}}); err != nil {
		t.Fatal(err)
	}
	verts := make([]trajectory.Vertex, len(q.Verts))
	for i, v := range q.Verts {
		verts[i] = trajectory.Vertex{X: v.X + 0.01, Y: v.Y + 0.01, T: v.T}
	}
	shadow, err := trajectory.New(100000, verts)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(shadow); err != nil {
		t.Fatal(err)
	}

	proc, err := prune.ForQueryWhereCtx(context.Background(), nil, store, q, 0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store.IndexVersion() == v1 {
		t.Fatalf("index version unchanged after mutations")
	}
	got := proc.UQ31()
	found := false
	for _, id := range got {
		if id == 100000 {
			found = true
		}
		if id == trs[50].OID {
			t.Fatalf("deleted OID %d still retrieved", trs[50].OID)
		}
	}
	if !found {
		t.Fatalf("shadowing trajectory missing from UQ31 after insert: %v", got)
	}
	// And the answers still match a full scan on the mutated store.
	full, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.UQ31(), got) {
		t.Fatalf("post-mutation UQ31 differs from full scan")
	}
}
