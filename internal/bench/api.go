package bench

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/workload"
)

// APIRow is one measurement of the unified-API overhead gate: the same
// UQ31 retrieval answered by a direct queries.Processor call and by
// Engine.Do (validation, memo lookup, worker dispatch, Explain
// accounting), on a single worker so the comparison isolates the API
// layer rather than parallel speedup.
type APIRow struct {
	N           int
	Reps        int
	DirectMS    float64 // median serial Processor.UQ31 latency
	DoMS        float64 // median Engine.Do(KindUQ31) latency
	OverheadPct float64 // (DoMS - DirectMS) / DirectMS * 100
	Equal       bool    // answers byte-identical
}

// APIOverhead measures the per-call overhead Engine.Do adds over the
// direct Processor path for UQ31 at population n, as the median of reps
// timed calls after a warm-up (so both paths run against the same warm,
// memoized preprocessing).
func APIOverhead(n, reps int, seed int64) (APIRow, error) {
	if reps < 1 {
		reps = 1
	}
	trs, err := workload.Generate(workload.DefaultConfig(seed), n)
	if err != nil {
		return APIRow{}, err
	}
	store, err := mod.NewUniformStore(0.5)
	if err != nil {
		return APIRow{}, err
	}
	if err := store.InsertAll(trs); err != nil {
		return APIRow{}, err
	}
	qOID := trs[0].OID
	eng := engine.NewWith(engine.Options{Workers: 1})
	proc, err := eng.ProcessorWhereCtx(context.Background(), store, qOID, 0, 60, nil)
	if err != nil {
		return APIRow{}, err
	}
	req := engine.Request{Kind: engine.KindUQ31, QueryOID: qOID, Tb: 0, Te: 60}
	ctx := context.Background()

	// Warm-up: both paths touch the same memoized preprocessing.
	want := proc.UQ31()
	res, err := eng.Do(ctx, store, req)
	if err != nil {
		return APIRow{}, err
	}
	equal := slices.Equal(want, res.OIDs)

	direct := make([]float64, reps)
	do := make([]float64, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		got := proc.UQ31()
		direct[i] = float64(time.Since(t0)) / float64(time.Millisecond)
		t0 = time.Now()
		res, err := eng.Do(ctx, store, req)
		do[i] = float64(time.Since(t0)) / float64(time.Millisecond)
		if err != nil {
			return APIRow{}, err
		}
		equal = equal && slices.Equal(got, res.OIDs)
	}
	row := APIRow{
		N: n, Reps: reps,
		DirectMS: median(direct), DoMS: median(do),
		Equal: equal,
	}
	if row.DirectMS > 0 {
		row.OverheadPct = (row.DoMS - row.DirectMS) / row.DirectMS * 100
	}
	return row, nil
}

// FormatAPI renders the overhead row as a text table.
func FormatAPI(r APIRow) string {
	return fmt.Sprintf("%8s %6s %12s %12s %10s %6s\n%8d %6d %12.3f %12.3f %9.2f%% %6v\n",
		"N", "reps", "direct ms", "Do ms", "overhead", "equal",
		r.N, r.Reps, r.DirectMS, r.DoMS, r.OverheadPct, r.Equal)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	return s[len(s)/2]
}
