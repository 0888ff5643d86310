package prune_test

// Gate for the rank-aware candidate bound: a ForQuery processor must serve
// rank-k (k >= 2) queries from index-probed rank-k survivors — no lazy
// full function build — and still answer byte-identically to a full scan.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/prune"
	"repro/internal/queries"
)

// TestRankQueriesAvoidFullBuild is the ROADMAP "natural next step" gate:
// ranked whole-MOD and per-object queries on a pruned processor must not
// trigger the lazy full build, and must match the full-scan processor.
func TestRankQueriesAvoidFullBuild(t *testing.T) {
	store, trs := buildStore(t, 400, 0.5, 31)
	q := trs[0]
	pruned, err := prune.ForQueryWhereCtx(context.Background(), nil, store, q, 0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.PrunedCount() == 0 {
		t.Fatal("index pre-pass pruned nothing at N=400, r=0.5")
	}
	full, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{2, 3, 5} {
		a, errA := full.UQ41(k)
		b, errB := pruned.UQ41(k)
		if errA != nil || errB != nil {
			t.Fatalf("UQ41(%d): full err=%v pruned err=%v", k, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("UQ41(%d): full=%v pruned=%v", k, a, b)
		}
		a, errA = full.UQ42(k)
		b, errB = pruned.UQ42(k)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("UQ42(%d) diverged: %v vs %v (%v, %v)", k, a, b, errA, errB)
		}
		a, errA = full.PossibleRankKAt(30, k)
		b, errB = pruned.PossibleRankKAt(30, k)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("PossibleRankKAt(30, %d) diverged: %v vs %v", k, a, b)
		}
	}
	// Per-object ranked predicates, sampled across the whole OID range so
	// Level-1-pruned candidates are exercised.
	oids := full.CandidateOIDs()
	step := len(oids)/40 + 1
	for i := 0; i < len(oids); i += step {
		oid := oids[i]
		for _, k := range []int{2, 3} {
			wa, errA := full.UQ21(oid, k)
			wb, errB := pruned.UQ21(oid, k)
			if errA != nil || errB != nil || wa != wb {
				t.Fatalf("UQ21(%d, %d): full=%v pruned=%v", oid, k, wa, wb)
			}
		}
	}
	// A basis the expander grew stays short of the candidate set; one the
	// lazy full build completed holds all of it.
	if n, all := len(pruned.SurvivorOIDs()), pruned.CandidateCount(); n >= all {
		t.Fatalf("rank-k queries grew the basis to %d of %d candidates: a lazy full build", n, all)
	}

	// The certain-NN extension reads the UQ31 members only (an object
	// outside the zone throughout cannot block anyone's certainty): the
	// pruned processor answers it without a full build, and exactly as the
	// full-scan one does.
	for _, oid := range append(full.UQ31(), oids[0]) {
		a, errA := full.GuaranteedNNIntervals(oid)
		b, errB := pruned.GuaranteedNNIntervals(oid)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("GuaranteedNNIntervals(%d): full=%v pruned=%v (%v, %v)", oid, a, b, errA, errB)
		}
	}
	if n, all := len(pruned.SurvivorOIDs()), pruned.CandidateCount(); n >= all {
		t.Fatalf("GuaranteedNNIntervals grew the basis to %d of %d candidates: a lazy full build", n, all)
	}
}

// TestCandidatesRankSuperset checks the rank-k survivor sets are sound
// (contain every full-scan rank-k answer) and monotone in k.
func TestCandidatesRankSuperset(t *testing.T) {
	store, trs := buildStore(t, 300, 0.5, 37)
	q := trs[1]
	full, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		ids, _, _, st, err := prune.ZoneWhereCtx(context.Background(), store, q, 0, 60, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Survivors != len(ids) {
			t.Fatalf("stats survivors %d != %d returned", st.Survivors, len(ids))
		}
		inSet := make(map[int64]bool, len(ids))
		for _, id := range ids {
			inSet[id] = true
		}
		want, err := full.UQ41(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range want {
			if !inSet[id] {
				t.Fatalf("k=%d: UQ41 answer %d missing from rank survivors", k, id)
			}
		}
	}
}

// TestPrunePrePassCancellation: a canceled context stops the candidate
// sweep and the pruned construction.
func TestPrunePrePassCancellation(t *testing.T) {
	store, trs := buildStore(t, 60, 0.5, 41)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, _, err := prune.ZoneWhereCtx(ctx, store, trs[0], 0, 60, 1, nil); err != context.Canceled {
		t.Fatalf("CandidatesCtx on canceled ctx: err=%v, want context.Canceled", err)
	}
	if _, err := prune.ForQueryWhereCtx(ctx, nil, store, trs[0], 0, 60, nil); err != context.Canceled {
		t.Fatalf("ForQueryCtx on canceled ctx: err=%v, want context.Canceled", err)
	}
	// The store stays fully usable afterwards.
	if _, err := prune.ForQueryWhereCtx(context.Background(), nil, store, trs[0], 0, 60, nil); err != nil {
		t.Fatalf("store unusable after canceled pass: %v", err)
	}
}
