package cluster_test

// Nightly chaos soak for the fault-tolerant serving layer: more seeds,
// more queries, and mixed fault plans on top of the PR-gate matrix in
// fault_test.go. Every query must still land in one of exactly two
// outcomes — an exact answer (the retry layer absorbed the faults) or a
// degraded answer naming the missing shard — and the per-plan outcome
// counts are written to $CHAOS_DIR for the nightly artifact. Skipped
// unless CHAOS_SOAK is set.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
)

func TestChaosSoakFaults(t *testing.T) {
	if os.Getenv("CHAOS_SOAK") == "" {
		t.Skip("set CHAOS_SOAK=1 (make chaos-soak) to run the fault soak")
	}
	artifacts := os.Getenv("CHAOS_DIR")
	if artifacts == "" {
		artifacts = t.TempDir()
	}
	if err := os.MkdirAll(artifacts, 0o755); err != nil {
		t.Fatal(err)
	}

	store, _ := buildStore(t, 200, 0.5, 17)
	plans := []struct {
		name string
		plan faultinject.Plan
	}{
		{"drop30", faultinject.Plan{DropRate: 0.3}},
		{"dial50-drop20", faultinject.Plan{DialErrorRate: 0.5, DropRate: 0.2}},
		{"delay-past-timeout", faultinject.Plan{Delay: 80 * time.Millisecond}},
		{"kitchen-sink", faultinject.Plan{DialErrorRate: 0.3, DropRate: 0.2, Delay: 5 * time.Millisecond, Jitter: 10 * time.Millisecond}},
	}

	type outcome struct {
		Plan     string            `json:"plan"`
		Seed     int64             `json:"seed"`
		Queries  int               `json:"queries"`
		Exact    int               `json:"exact"`
		Degraded int               `json:"degraded"`
		Stats    faultinject.Stats `json:"injector_stats"`
	}
	var outcomes []outcome

	for _, seed := range []int64{101, 102, 103} {
		for _, p := range plans {
			p, seed := p, seed
			t.Run(fmt.Sprintf("seed%d-%s", seed, p.name), func(t *testing.T) {
				const faultIdx = 2
				router, in, stores, _ := faultCluster(t, store, 4, faultIdx, seed, true)
				qOID := pickQuery(t, stores, faultIdx)
				req := engine.Request{Kind: engine.KindUQ31, QueryOID: qOID, Tb: 0, Te: 30}
				exact, err := engine.New(0).Do(context.Background(), store, req)
				if err != nil {
					t.Fatal(err)
				}

				in.SetPlan(p.plan)
				o := outcome{Plan: p.name, Seed: seed, Queries: 25}
				for i := 0; i < o.Queries; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					res, err := router.Do(ctx, req)
					cancel()
					if err != nil {
						t.Fatalf("query %d: %v (neither retry success nor degraded)", i, err)
					}
					if res.Explain.Degraded {
						if !reflect.DeepEqual(res.Explain.MissingShards, []string{"s2"}) {
							t.Fatalf("query %d: MissingShards = %v", i, res.Explain.MissingShards)
						}
						o.Degraded++
						continue
					}
					if !reflect.DeepEqual(res.OIDs, exact.OIDs) {
						t.Fatalf("query %d: non-degraded answer %v != exact %v", i, res.OIDs, exact.OIDs)
					}
					o.Exact++
				}
				o.Stats = in.Stats()
				outcomes = append(outcomes, o)
				t.Logf("%s seed %d: %d exact, %d degraded, stats %+v", p.name, seed, o.Exact, o.Degraded, o.Stats)
			})
		}
	}

	b, err := json.MarshalIndent(outcomes, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(artifacts, "fault-soak.json")
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("fault soak report: %s", out)
}
