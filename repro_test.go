package repro_test

import (
	"context"
	"slices"
	"sort"
	"testing"

	"repro"
)

// serialOracle answers through a one-worker engine with the index
// pre-pass off: the full-scan evaluation every other route must match.
func serialOracle(t *testing.T, store *repro.Store, req repro.Request) repro.Result {
	t.Helper()
	res, err := repro.NewEngineWith(repro.EngineOptions{Workers: 1, FullScan: true}).Do(context.Background(), store, req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runUQL compiles a statement and evaluates it.
func runUQL(t *testing.T, eng *repro.Engine, store *repro.Store, stmt string) repro.Result {
	t.Helper()
	req, err := repro.CompileUQL(stmt)
	if err != nil {
		t.Fatalf("CompileUQL(%q): %v", stmt, err)
	}
	res, err := eng.Do(context.Background(), store, req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func seededStore(t *testing.T, n int) *repro.Store {
	t.Helper()
	store, err := repro.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := repro.GenerateWorkload(repro.DefaultWorkload(1234), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestFacadeEndToEnd walks the whole public surface the README shows.
func TestFacadeEndToEnd(t *testing.T) {
	store := seededStore(t, 120)
	q, err := store.Get(1)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	proc, err := repro.NewEngine(0).ProcessorWhereCtx(ctx, store, q.OID, 0, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := repro.BuildIPACNN(ctx, proc, nil, repro.TreeConfig{MaxLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NodeCount() == 0 || tree.Depth() < 1 {
		t.Fatalf("tree: %d nodes depth %d", tree.NodeCount(), tree.Depth())
	}
	if got := tree.AnswerAt(30); got == 0 || got == q.OID {
		t.Fatalf("AnswerAt = %d", got)
	}
	ranked := tree.RankedAt(30, 3)
	if len(ranked) == 0 || ranked[0] != tree.AnswerAt(30) {
		t.Fatalf("RankedAt = %v vs AnswerAt = %d", ranked, tree.AnswerAt(30))
	}

	uq31 := serialOracle(t, store, repro.Request{Kind: repro.KindUQ31, QueryOID: 1, Tb: 0, Te: 60}).OIDs
	res := runUQL(t, repro.NewEngine(0), store,
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0")
	if !slices.Equal(res.OIDs, uq31) {
		t.Fatalf("UQL %v vs full scan %v", res.OIDs, uq31)
	}
	// The tree's kept set equals UQ31.
	kept := append([]int64(nil), tree.KeptOIDs...)
	sort.Slice(kept, func(a, b int) bool { return kept[a] < kept[b] })
	if len(kept) != len(uq31) {
		t.Fatalf("tree kept %d vs UQ31 %d", len(kept), len(uq31))
	}
	for i := range kept {
		if kept[i] != uq31[i] {
			t.Fatalf("kept/UQ31 divergence at %d: %d vs %d", i, kept[i], uq31[i])
		}
	}
}

func TestFacadeProbabilityHelpers(t *testing.T) {
	u := repro.UniformDiskPDF(1)
	if u.Support() != 1 {
		t.Fatal("uniform support")
	}
	if g := repro.BoundedGaussianPDF(1, 0.4); g.Support() != 1 {
		t.Fatal("gaussian support")
	}
	if c := repro.ConePDF(2); c.Support() != 2 {
		t.Fatal("cone support")
	}
}

func TestFacadeTrajectoryConstruction(t *testing.T) {
	tr, err := repro.NewTrajectory(9, []repro.Vertex{{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.OID != 9 {
		t.Fatalf("oid = %d", tr.OID)
	}
	if _, err := repro.NewTrajectory(9, nil); err == nil {
		t.Fatal("invalid trajectory accepted")
	}
	// Store with explicit spec.
	st, err := repro.NewStore(repro.PDFSpec{Kind: repro.PDFBoundedGaussian, R: 1, Sigma: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Radius() != 1 {
		t.Fatalf("radius = %g", st.Radius())
	}
	if _, err := repro.NewStore(repro.PDFSpec{Kind: "bogus", R: 1}); err == nil {
		t.Fatal("bogus spec accepted")
	}
}

func TestFacadeWorkloadConfigs(t *testing.T) {
	single, err := repro.GenerateWorkload(repro.SingleSegmentWorkload(3), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range single {
		if tr.NumSegments() != 1 {
			t.Fatalf("segments = %d", tr.NumSegments())
		}
	}
}

// TestFacadeBatchEngine exercises the engine exports: a typed batch, the
// UQL compile route, and agreement with the serial full scan.
func TestFacadeBatchEngine(t *testing.T) {
	store := seededStore(t, 80)
	eng := repro.NewEngine(0)

	reqs := []repro.Request{
		{Kind: repro.KindUQ31, QueryOID: 1, Tb: 0, Te: 60},
		{Kind: repro.KindUQ41, QueryOID: 1, Tb: 0, Te: 60, K: 2},
		{Kind: repro.KindUQ13, QueryOID: 1, Tb: 0, Te: 60, OID: 2, X: 0.1},
	}
	results, err := eng.DoBatch(context.Background(), store, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("results = %d", len(results))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		want := serialOracle(t, store, reqs[i])
		if res.IsBool != want.IsBool || res.Bool != want.Bool || !slices.Equal(res.OIDs, want.OIDs) {
			t.Fatalf("request %d: engine %+v != serial %+v", i, res, want)
		}
	}

	all := runUQL(t, eng, store, "SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0")
	one := runUQL(t, eng, store, "SELECT 2 FROM MOD WHERE FORALL Time IN [0, 60] AND ProbabilityNN(2, 1, Time) > 0")
	if all.IsBool || !one.IsBool {
		t.Fatalf("result shapes: %+v, %+v", all, one)
	}
	if !slices.Equal(all.OIDs, results[0].OIDs) {
		t.Fatalf("UQL %v vs typed request %v", all.OIDs, results[0].OIDs)
	}
}
