package bench

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/queries"
	"repro/internal/workload"
)

func TestParallelBatchSmallRun(t *testing.T) {
	rows, err := ParallelBatch([]int{80}, 2, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.N != 80 || r.K != 2 || r.Workers != 2 {
		t.Errorf("row = %+v", r)
	}
	if r.SerialT <= 0 || r.ParallelT <= 0 || r.Speedup <= 0 {
		t.Errorf("timings not populated: %+v", r)
	}
	if !strings.Contains(FormatParallel(rows), "speedup") {
		t.Error("format header")
	}
	if !strings.HasPrefix(CSVParallel(rows), "n,k,workers") {
		t.Error("csv header")
	}
	// Defaults: k < 1 and workers <= 0 fall back sensibly.
	rows, err = ParallelBatch([]int{30}, 0, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].K != 3 || rows[0].Workers != runtime.NumCPU() {
		t.Errorf("defaults not applied: %+v", rows[0])
	}
	// Bad n propagates.
	if _, err := ParallelBatch([]int{-5}, 2, 2, 9); err == nil {
		t.Error("negative n accepted")
	}
}

// benchState shares the seeded store/processor across benchmark iterations.
type benchState struct {
	store *mod.Store
	qOID  int64
	proc  *queries.Processor
	eng   *engine.Engine
	qs    []engine.Request
}

func newBenchState(b *testing.B, n, k, workers int) *benchState {
	b.Helper()
	trs, err := workload.Generate(workload.DefaultConfig(1234), n)
	if err != nil {
		b.Fatal(err)
	}
	store, err := mod.NewUniformStore(0.5)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		b.Fatal(err)
	}
	proc, err := queries.NewProcessor(trs, trs[0], 0, 60, store.Radius())
	if err != nil {
		b.Fatal(err)
	}
	if err := proc.EnsureLevels(k); err != nil {
		b.Fatal(err)
	}
	eng := engine.New(workers)
	pproc, err := eng.ProcessorWhereCtx(context.Background(), store, trs[0].OID, 0, 60, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := pproc.EnsureLevels(k); err != nil {
		b.Fatal(err)
	}
	return &benchState{store: store, qOID: trs[0].OID, proc: proc, eng: eng, qs: parallelQueries(trs[0].OID, k)}
}

// BenchmarkBatchSerial and BenchmarkBatchParallel compare the UQ41/UQ43
// batch (ranks 1..3, N = 400) with and without the worker pool. Run both
// with -cpu to see scaling:
//
//	go test ./internal/bench -bench 'BenchmarkBatch' -cpu 1,4
const (
	benchN = 400
	benchK = 3
)

func BenchmarkBatchSerial(b *testing.B) {
	s := newBenchState(b, benchN, benchK, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 1; k <= benchK; k++ {
			if _, err := s.proc.UQ41(k); err != nil {
				b.Fatal(err)
			}
			if _, err := s.proc.UQ43(k, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBatchParallel(b *testing.B) {
	s := newBenchState(b, benchN, benchK, runtime.GOMAXPROCS(0))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.eng.DoBatch(ctx, s.store, s.qs); err != nil {
			b.Fatal(err)
		}
	}
}
