package cluster_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/queries"
	"repro/internal/workload"
)

// TestProbabilityUsesStorePDF: a P > 0 answer convolves the store's own
// location pdf, not a uniform disk of its radius — from the engine, a
// 2-shard router and an engine hub alike. On this bounded-Gaussian fleet
// the uniform disk answers every row below differently.
func TestProbabilityUsesStorePDF(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(7), 40)
	if err != nil {
		t.Fatal(err)
	}
	store, err := mod.NewStore(mod.PDFSpec{Kind: mod.PDFBoundedGaussian, R: 0.5, Sigma: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q, tb, te := trs[0].OID, 17.0, 27.0
	ref, err := queries.NewProcessor(store.All(), trs[0], tb, te, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	table, err := ref.ProbabilityTable(ctx, queries.ThresholdConfig{PDF: store.PDF()})
	if err != nil {
		t.Fatal(err)
	}

	eng := engine.New(2)
	for _, c := range []struct{ p, x float64 }{{0.3, 0.05}, {0.9, 0.8}} {
		want, err := table.ThresholdNNAll(c.p, c.x)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Do(ctx, store, engine.Request{Kind: engine.KindUQ33, QueryOID: q, Tb: tb, Te: te, X: c.x, P: c.p})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.OIDs, want) {
			t.Errorf("engine UQ33 p=%g x=%g = %v, store-pdf reference %v", c.p, c.x, res.OIDs, want)
		}
	}

	// One object the uniform disk puts above p = 0.3 for 5 % of the window
	// and the store's pdf does not.
	const oid, p, x = 39, 0.3, 0.05
	want, err := table.ThresholdNN(oid, p, x)
	if err != nil {
		t.Fatal(err)
	}
	req := engine.Request{Kind: engine.KindUQ13, QueryOID: q, Tb: tb, Te: te, OID: oid, X: x, P: p}
	router, err := cluster.NewLocalCluster(store, 2, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := router.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bool != want {
		t.Errorf("router UQ13(%d) p=%g x=%g = %v, store-pdf reference %v", oid, p, x, res.Bool, want)
	}
	_, res, err = continuous.NewEngineHub(store, eng).Subscribe(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bool != want {
		t.Errorf("hub UQ13(%d) p=%g x=%g = %v, store-pdf reference %v", oid, p, x, res.Bool, want)
	}
}
