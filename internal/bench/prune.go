package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/workload"
)

// PruneRow is one point of the index-pruning experiment: end-to-end UQ31
// latency (processor construction + whole-MOD retrieval) with the full
// O(N·m) preprocessing versus the index-accelerated candidate pre-pass,
// plus the pre-pass selectivity. Equal records that both sides returned
// byte-identical OID sets — the conservative-correctness gate, measured,
// not assumed.
type PruneRow struct {
	N          int
	FullT      time.Duration // avg full-scan NewProcessor + UQ31
	IndexedT   time.Duration // avg prune.ForQueryWhereCtx + UQ31
	Candidates int           // non-query objects per query
	Survivors  float64       // avg candidates surviving the pre-pass
	Speedup    float64       // FullT / IndexedT
	Equal      bool          // indexed UQ31 ≡ full UQ31 on every rep
}

// PruneSweep measures indexed vs full-scan UQ31 for each population size,
// averaging reps query trajectories per size. The store's spatial index is
// built once per population before timing (it is maintained per store
// version and amortized across every query against that version), so the
// comparison isolates the per-query cost the pre-pass actually removes:
// distance-function construction, envelope building, and the per-candidate
// zone scans for non-survivors.
func PruneSweep(ns []int, reps int, r float64, seed int64) ([]PruneRow, error) {
	if reps <= 0 {
		reps = 3
	}
	if r <= 0 {
		r = 0.5
	}
	var rows []PruneRow
	for _, n := range ns {
		trs, err := workload.Generate(workload.DefaultConfig(seed), n)
		if err != nil {
			return nil, err
		}
		store, err := mod.NewUniformStore(r)
		if err != nil {
			return nil, err
		}
		if err := store.InsertAll(trs); err != nil {
			return nil, err
		}
		store.BuildIndex(0) // warm the version-cached index

		row := PruneRow{N: n, Candidates: n - 1, Equal: true}
		var fullT, idxT time.Duration
		var survivors int
		for rep := 0; rep < reps; rep++ {
			q := trs[(rep*7)%n]

			start := time.Now()
			fp, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
			if err != nil {
				return nil, err
			}
			want := fp.UQ31()
			fullT += time.Since(start)

			start = time.Now()
			ip, err := prune.ForQueryWhereCtx(context.Background(), store, q, 0, 60, nil)
			if err != nil {
				return nil, err
			}
			got := ip.UQ31()
			idxT += time.Since(start)

			if !slices.Equal(got, want) {
				row.Equal = false
			}
			survivors += n - 1 - ip.PrunedCount()
		}
		row.FullT = fullT / time.Duration(reps)
		row.IndexedT = idxT / time.Duration(reps)
		row.Survivors = float64(survivors) / float64(reps)
		if row.IndexedT > 0 {
			row.Speedup = float64(row.FullT) / float64(row.IndexedT)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatPrune renders rows as an aligned text table.
func FormatPrune(rows []PruneRow) string {
	s := fmt.Sprintf("%-8s %-14s %-14s %-10s %-11s %-9s %s\n",
		"N", "full", "indexed", "speedup", "survivors", "frac", "equal")
	for _, r := range rows {
		frac := 0.0
		if r.Candidates > 0 {
			frac = r.Survivors / float64(r.Candidates)
		}
		s += fmt.Sprintf("%-8d %-14s %-14s %-10s %-11.1f %-9.4f %v\n",
			r.N, r.FullT, r.IndexedT, fmt.Sprintf("%.2fx", r.Speedup), r.Survivors, frac, r.Equal)
	}
	return s
}

// CSVPrune renders rows as CSV.
func CSVPrune(rows []PruneRow) string {
	s := "n,full_ns,indexed_ns,candidates,survivors,speedup,equal\n"
	for _, r := range rows {
		s += fmt.Sprintf("%d,%d,%d,%d,%.2f,%.4f,%v\n",
			r.N, r.FullT.Nanoseconds(), r.IndexedT.Nanoseconds(),
			r.Candidates, r.Survivors, r.Speedup, r.Equal)
	}
	return s
}

// pruneDoc is the BENCH_prune.json artifact schema.
type pruneDoc struct {
	Experiment string         `json:"experiment"`
	Query      string         `json:"query"`
	Radius     float64        `json:"radius"`
	Reps       int            `json:"reps"`
	Seed       int64          `json:"seed"`
	Rows       []pruneRowJSON `json:"rows"`
}

type pruneRowJSON struct {
	N          int     `json:"n"`
	FullNS     int64   `json:"full_ns"`
	IndexedNS  int64   `json:"indexed_ns"`
	Candidates int     `json:"candidates"`
	Survivors  float64 `json:"survivors"`
	Speedup    float64 `json:"speedup"`
	Equal      bool    `json:"equal"`
}

// WritePruneJSON emits the benchmark artifact consumed by CI (uploaded as
// BENCH_prune.json) and by anyone tracking the pruning speedup over time.
func WritePruneJSON(w io.Writer, rows []PruneRow, r float64, reps int, seed int64) error {
	doc := pruneDoc{
		Experiment: "index-accelerated candidate pruning",
		Query:      "UQ31 (construction + whole-MOD retrieval)",
		Radius:     r, Reps: reps, Seed: seed,
	}
	for _, row := range rows {
		doc.Rows = append(doc.Rows, pruneRowJSON{
			N: row.N, FullNS: row.FullT.Nanoseconds(), IndexedNS: row.IndexedT.Nanoseconds(),
			Candidates: row.Candidates, Survivors: row.Survivors,
			Speedup: row.Speedup, Equal: row.Equal,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
