package continuous

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/simtest"
)

// BenchmarkHubIngestStanding is the per-layer view of the standing_churn
// workload's ingest path, which the traced benchmark cannot see (its hub
// runs on the benchmark's own from-scratch backend): N = 2 000 objects, 24
// standing questions of the four standing_churn kinds, batches of ~7
// updates (4 revisions, a tag flip, a retirement, the re-entries) through
// NewEngineHub. One iteration is one Hub.Ingest; the script is generated
// outside the timer and replayed on a fresh hub whenever it runs out. The
// sub-benchmarks replay one script on an engine of 1 worker (the serial
// hub) and of 2 (dirty groups side by side). Beside ns/op and B/op they
// report how many evaluations a batch caused and how many of those
// continued the maintained answer, and — as rebuilt_<cause>/batch — what
// each from-scratch evaluation was owed to.
func BenchmarkHubIngestStanding(b *testing.B) {
	const n, questions, batches = 2000, 24, 150
	w, reqs := standingWorld(b, n, questions, batches)
	script := make([][]mod.Update, batches)
	for i := range script {
		batch, err := w.StepSized(4, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		script[i] = batch
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchHubIngest(b, w, reqs, script, workers)
		})
	}
}

func benchHubIngest(b *testing.B, w *simtest.World, reqs []engine.Request, script [][]mod.Update, workers int) {
	batches := len(script)
	ctx := context.Background()
	var (
		hub   *Hub
		be    *engineBackend
		stats Stats
		why   [prune.Verdicts]uint64
	)
	settle := func() {
		if hub == nil {
			return
		}
		s := hub.Stats()
		stats.Evals, stats.Patched, stats.Rebuilt, stats.Skips = stats.Evals+s.Evals, stats.Patched+s.Patched, stats.Rebuilt+s.Rebuilt, stats.Skips+s.Skips
		for v, c := range be.verdictCounts() {
			why[v] += c
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%batches == 0 {
			b.StopTimer()
			settle()
			st, err := w.InitialStore()
			if err != nil {
				b.Fatal(err)
			}
			be = &engineBackend{store: st, eng: engine.New(workers)}
			hub = New(be)
			for _, req := range reqs {
				if _, _, err := hub.Subscribe(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if _, _, err := hub.Ingest(ctx, script[i%batches]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	settle()
	per := func(c uint64) float64 { return float64(c) / float64(b.N) }
	b.ReportMetric(per(stats.Evals), "evals/batch")
	b.ReportMetric(per(stats.Patched), "patched/batch")
	for v := prune.Patched + 1; v < prune.Verdicts; v++ {
		if why[v] > 0 {
			b.ReportMetric(per(why[v]), "rebuilt_"+v.String()+"/batch")
		}
	}
}
