package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/queries"
	"repro/internal/workload"
)

// ParRow is one point of the parallel-batch experiment: a batch of ranked
// whole-MOD retrievals (UQ41 and UQ43 at ranks 1..K) evaluated with the
// serial Processor loops vs the worker-pool batch engine, preprocessing
// excluded from both sides. Speedup > 1 means the engine wins; it needs
// multiple cores to materialize (expect ≥2× on 4+ cores at MOD sizes in
// the thousands, and ~1× on a single core).
type ParRow struct {
	N         int
	K         int
	Workers   int
	SerialT   time.Duration
	ParallelT time.Duration
	Speedup   float64
}

// parallelQueries is the batch under test: UQ41 and UQ43 (x = 50%) at every
// rank up to k.
func parallelQueries(qOID int64, k int) []engine.Request {
	var qs []engine.Request
	for i := 1; i <= k; i++ {
		qs = append(qs,
			engine.Request{Kind: engine.KindUQ41, QueryOID: qOID, Tb: 0, Te: 60, K: i},
			engine.Request{Kind: engine.KindUQ43, QueryOID: qOID, Tb: 0, Te: 60, K: i, X: 0.5},
		)
	}
	return qs
}

// ParallelBatch measures serial vs parallel evaluation of the UQ41/UQ43
// batch for each population size. workers <= 0 means one per CPU. Both
// sides are warmed first (envelope and k-level construction excluded) so
// the comparison isolates the per-object candidate evaluation that the
// engine parallelizes.
func ParallelBatch(ns []int, k, workers int, seed int64) ([]ParRow, error) {
	if k < 1 {
		k = 3
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	var rows []ParRow
	for _, n := range ns {
		trs, err := workload.Generate(workload.DefaultConfig(seed), n)
		if err != nil {
			return nil, err
		}
		store, err := mod.NewUniformStore(0.5)
		if err != nil {
			return nil, err
		}
		if err := store.InsertAll(trs); err != nil {
			return nil, err
		}

		// Serial side: one processor, levels prebuilt, then the plain loops.
		proc, err := queries.NewProcessor(trs, trs[0], 0, 60, store.Radius())
		if err != nil {
			return nil, err
		}
		if err := proc.EnsureLevels(k); err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 1; i <= k; i++ {
			if _, err := proc.UQ41(i); err != nil {
				return nil, err
			}
			if _, err := proc.UQ43(i, 0.5); err != nil {
				return nil, err
			}
		}
		serial := time.Since(start)

		// Parallel side: warm the engine's memo and levels, then the batch.
		eng := engine.New(workers)
		pproc, err := eng.ProcessorWhereCtx(context.Background(), store, trs[0].OID, 0, 60, nil)
		if err != nil {
			return nil, err
		}
		if err := pproc.EnsureLevels(k); err != nil {
			return nil, err
		}
		start = time.Now()
		results, err := eng.DoBatch(context.Background(), store, parallelQueries(trs[0].OID, k))
		if err != nil {
			return nil, err
		}
		parallel := time.Since(start)
		for _, it := range results {
			if it.Err != nil {
				return nil, it.Err
			}
		}

		row := ParRow{N: n, K: k, Workers: workers, SerialT: serial, ParallelT: parallel}
		if parallel > 0 {
			row.Speedup = float64(serial) / float64(parallel)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatParallel renders rows as an aligned text table.
func FormatParallel(rows []ParRow) string {
	s := fmt.Sprintf("%-8s %-4s %-8s %-14s %-14s %s\n",
		"N", "K", "workers", "serial", "parallel", "speedup")
	for _, r := range rows {
		s += fmt.Sprintf("%-8d %-4d %-8d %-14s %-14s %.2fx\n",
			r.N, r.K, r.Workers, r.SerialT, r.ParallelT, r.Speedup)
	}
	return s
}

// CSVParallel renders rows as CSV.
func CSVParallel(rows []ParRow) string {
	s := "n,k,workers,serial_ns,parallel_ns,speedup\n"
	for _, r := range rows {
		s += fmt.Sprintf("%d,%d,%d,%d,%d,%.4f\n",
			r.N, r.K, r.Workers, r.SerialT.Nanoseconds(), r.ParallelT.Nanoseconds(), r.Speedup)
	}
	return s
}
