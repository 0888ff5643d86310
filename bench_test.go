// Benchmarks regenerating the paper's evaluation figures (Section 5) and
// the ablations listed in DESIGN.md. The full paper-scale sweeps (N up to
// 12000, naive baselines included) are driven by cmd/figures; here the
// default sizes are chosen so `go test -bench=. -benchmem` finishes in
// minutes while still exhibiting every trend the paper reports:
//
//	Figure 11 → BenchmarkFig11EnvelopeDC / BenchmarkFig11EnvelopeNaive
//	Figure 12 → BenchmarkFig12Existential* / BenchmarkFig12Quantitative*
//	Figure 13 → BenchmarkFig13PruningPower (reports frac_required)
//	A1 → BenchmarkAblationMergeOrder   (D&C vs sequential Merge_LE)
//	A2 → BenchmarkAblationTreeLevels   (IPAC-NN depth k = 1..4)
//	A3 → BenchmarkAblationSegments     (m segments per trajectory)
//	A4 → BenchmarkAblationPWD          (analytic Eq. 4 vs generic radial)
//	A5 → BenchmarkAblationRanking      (Theorem-1 sort vs full Eq. 5)
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/envelope"
	"repro/internal/mod"
	"repro/internal/queries"
	"repro/internal/trajectory"
	"repro/internal/uncertain"
	"repro/internal/updf"
	"repro/internal/workload"
)

const benchSeed = 2009

func benchFuncs(b *testing.B, n, segments int) ([]*trajectory.Trajectory, []*envelope.DistanceFunc) {
	b.Helper()
	cfg := workload.DefaultConfig(benchSeed)
	cfg.VelocityChanges = segments - 1
	trs, err := workload.Generate(cfg, n)
	if err != nil {
		b.Fatal(err)
	}
	fns, err := envelope.BuildDistanceFuncs(trs, trs[0], 0, 60)
	if err != nil {
		b.Fatal(err)
	}
	return trs, fns
}

// --- Figure 11: lower-envelope construction ---

func BenchmarkFig11EnvelopeDC(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			_, fns := benchFuncs(b, n, 6)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := envelope.LowerEnvelope(fns, 0, 60); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig11EnvelopeNaive(b *testing.B) {
	for _, n := range []int{500, 1000, 2000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			_, fns := benchFuncs(b, n, 6)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := envelope.NaiveLowerEnvelope(fns, 0, 60); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 12: query processing (UQ11 existential, UQ13 quantitative) ---

func benchTargets(trs []*trajectory.Trajectory, count int) []int64 {
	rng := rand.New(rand.NewSource(benchSeed))
	out := make([]int64, count)
	for i := range out {
		out[i] = trs[1+rng.Intn(len(trs)-1)].OID
	}
	return out
}

func BenchmarkFig12ExistentialOur(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			trs, _ := benchFuncs(b, n, 6)
			proc, err := queries.NewProcessor(trs, trs[0], 0, 60, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			targets := benchTargets(trs, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := proc.UQ11(targets[i%len(targets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig12ExistentialNaive(b *testing.B) {
	for _, n := range []int{500, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			trs, _ := benchFuncs(b, n, 6)
			np, err := queries.NewNaiveProcessor(trs, trs[0], 0, 60, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			targets := benchTargets(trs, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := np.UQ11(targets[i%len(targets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig12QuantitativeOur(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			trs, _ := benchFuncs(b, n, 6)
			proc, err := queries.NewProcessor(trs, trs[0], 0, 60, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			targets := benchTargets(trs, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := proc.UQ13(targets[i%len(targets)], 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig12QuantitativeNaive(b *testing.B) {
	for _, n := range []int{500, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			trs, _ := benchFuncs(b, n, 6)
			np, err := queries.NewNaiveProcessor(trs, trs[0], 0, 60, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			targets := benchTargets(trs, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := np.UQ13(targets[i%len(targets)], 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 13: pruning power (reported as a custom metric) ---

func BenchmarkFig13PruningPower(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		for _, r := range []float64{0.1, 0.5, 1.0, 2.0, 5.0} {
			b.Run(fmt.Sprintf("N=%d/r=%.1f", n, r), func(b *testing.B) {
				_, fns := benchFuncs(b, n, 6)
				env, err := envelope.LowerEnvelope(fns, 0, 60)
				if err != nil {
					b.Fatal(err)
				}
				var frac float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kept, _ := envelope.Prune(fns, env, 4*r)
					frac = float64(len(kept)) / float64(len(fns))
				}
				b.ReportMetric(frac, "frac_required")
			})
		}
	}
}

// --- A1: divide-and-conquer vs sequential Merge_LE order ---

func BenchmarkAblationMergeOrder(b *testing.B) {
	const n = 1000
	b.Run("divide-and-conquer", func(b *testing.B) {
		_, fns := benchFuncs(b, n, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := envelope.LowerEnvelope(fns, 0, 60); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		_, fns := benchFuncs(b, n, 1)
		table := make(map[int64]*envelope.DistanceFunc, len(fns))
		for _, f := range fns {
			table[f.ID] = f
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			acc := []envelope.Interval{{ID: fns[0].ID, T0: 0, T1: 60}}
			for _, f := range fns[1:] {
				acc = envelope.MergeLE(nil, acc, []envelope.Interval{{ID: f.ID, T0: 0, T1: 60}}, table)
			}
		}
	})
}

// --- A2: IPAC-NN tree depth ---

func BenchmarkAblationTreeLevels(b *testing.B) {
	const n = 500
	for _, k := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("levels=%d", k), func(b *testing.B) {
			trs, _ := benchFuncs(b, n, 6)
			store, err := mod.NewUniformStore(0.5)
			if err != nil {
				b.Fatal(err)
			}
			if err := store.InsertAll(trs); err != nil {
				b.Fatal(err)
			}
			store.BuildIndex(0) // a serving store keeps its index
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh engine: every iteration pays the index pre-pass
				// and the envelope build, as a cold query does.
				proc, err := engine.New(1).ProcessorWhereCtx(ctx, store, trs[0].OID, 0, 60, nil)
				if err != nil {
					b.Fatal(err)
				}
				tree, err := core.FromProcessor(ctx, proc, nil, core.Config{MaxLevels: k})
				if err != nil {
					b.Fatal(err)
				}
				_ = tree.NodeCount()
			}
		})
	}
}

// --- A3: segments per trajectory (the paper's closing §3.2 remark) ---

func BenchmarkAblationSegments(b *testing.B) {
	const n = 1000
	for _, m := range []int{1, 2, 6, 12} {
		b.Run(fmt.Sprintf("segments=%d", m), func(b *testing.B) {
			_, fns := benchFuncs(b, n, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := envelope.LowerEnvelope(fns, 0, 60); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A4: analytic uniform Eq. 4 vs generic radial quadrature ---

// genericUniform hides the UniformDisk concrete type so the within-distance
// computation takes the generic radial-quadrature path.
type genericUniform struct{ updf.UniformDisk }

func (g genericUniform) Name() string { return "generic-" + g.UniformDisk.Name() }

func BenchmarkAblationPWD(b *testing.B) {
	u := updf.NewUniformDisk(1)
	b.Run("analytic-lens", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			uncertain.WithinDistanceProb(u, 3, 2.5+float64(i%10)*0.1)
		}
	})
	b.Run("generic-radial", func(b *testing.B) {
		g := genericUniform{u}
		for i := 0; i < b.N; i++ {
			uncertain.WithinDistanceProb(g, 3, 2.5+float64(i%10)*0.1)
		}
	})
}

// --- A5: Theorem-1 ranking vs full Eq. 5 integration ---

func BenchmarkAblationRanking(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	cands := make([]uncertain.Candidate, 50)
	for i := range cands {
		cands[i] = uncertain.Candidate{ID: int64(i), Dist: 1 + 10*rng.Float64()}
	}
	conv := updf.NewUniformConv(0.5, 0.5)
	b.Run("theorem1-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			uncertain.RankByDistance(cands)
		}
	})
	b.Run("full-eq5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			uncertain.NNProbabilities(conv, cands, 256)
		}
	})
}

// --- supporting micro-benchmarks ---

func BenchmarkNNProbabilitiesGrid(b *testing.B) {
	cands := []uncertain.Candidate{
		{ID: 1, Dist: 2.0}, {ID: 2, Dist: 2.3}, {ID: 3, Dist: 3.1}, {ID: 4, Dist: 4.0},
	}
	u := updf.NewUniformDisk(1)
	for _, grid := range []int{128, 512, 2048} {
		b.Run(fmt.Sprintf("grid=%d", grid), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				uncertain.NNProbabilities(u, cands, grid)
			}
		})
	}
}

func BenchmarkConvolution(b *testing.B) {
	g := updf.NewBoundedGaussian(1, 0.5)
	b.Run("numeric-129", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := updf.Convolve(g, g, 129); err != nil {
				b.Fatal(err)
			}
		}
	})
	u := updf.NewUniformDisk(1)
	b.Run("analytic-uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := updf.ConvolveAnalytic(u, u); !ok {
				b.Fatal("no analytic form")
			}
		}
	})
}

// --- A7: threshold-query cost by probability-sampling resolution (one
// table, every member's series, then the target's intervals) ---

func BenchmarkAblationThresholdSamples(b *testing.B) {
	const n = 100
	trs, _ := benchFuncs(b, n, 1)
	proc, err := queries.NewProcessor(trs, trs[0], 0, 60, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	target := benchTargets(trs, 1)[0]
	for _, samples := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			cfg := queries.ThresholdConfig{TimeSamples: samples, Grid: 256}
			for i := 0; i < b.N; i++ {
				table, err := proc.ProbabilityTable(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := table.Above(target, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4 (extension): pruning power under clustered (hotspot) workloads ---
//
// The paper evaluates pruning on a uniform random-waypoint population;
// city-like hotspot densities change the picture: with many objects packed
// near the query, more survive the 4r zone. Reported as frac_required for
// uniform vs clustered workloads at the same N and r.

func BenchmarkE4ClusteredPruning(b *testing.B) {
	const (
		n = 2000
		r = 0.5
	)
	makeFns := func(b *testing.B, clustered bool) []*envelope.DistanceFunc {
		b.Helper()
		var (
			trs []*trajectory.Trajectory
			err error
		)
		if clustered {
			trs, err = workload.GenerateClustered(workload.ClusterConfig{
				Base: workload.DefaultConfig(benchSeed), Clusters: 4, Spread: 1.5,
			}, n)
		} else {
			trs, err = workload.Generate(workload.DefaultConfig(benchSeed), n)
		}
		if err != nil {
			b.Fatal(err)
		}
		fns, err := envelope.BuildDistanceFuncs(trs, trs[0], 0, 60)
		if err != nil {
			b.Fatal(err)
		}
		return fns
	}
	for _, clustered := range []bool{false, true} {
		name := "uniform"
		if clustered {
			name = "clustered"
		}
		b.Run(name, func(b *testing.B) {
			fns := makeFns(b, clustered)
			env, err := envelope.LowerEnvelope(fns, 0, 60)
			if err != nil {
				b.Fatal(err)
			}
			var frac float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kept, _ := envelope.Prune(fns, env, 4*r)
				frac = float64(kept2len(kept)) / float64(len(fns))
			}
			b.ReportMetric(frac, "frac_required")
		})
	}
}

func kept2len(fns []*envelope.DistanceFunc) int { return len(fns) }
