package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// TextRow is one point of the spatio-textual experiment: end-to-end UQ31
// latency for a tag-restricted query answered by the pruned path (the
// pre-pass restricted to the matching sub-MOD, so only its survivors reach
// envelope construction) versus the naive semantics-preserving baseline —
// a linear tag scan over the whole MOD followed by full O(M·m) envelope
// refinement over every matching object.
// Equal records that both sides returned byte-identical OID sets on every
// rep: the sub-MOD correctness gate, measured, not assumed.
type TextRow struct {
	N         int
	Matching  int           // objects matching the predicate
	FilterT   time.Duration // avg naive filter-then-refine
	PrunedT   time.Duration // avg engine.Do with Request.Where
	Textual   float64       // avg Explain.TextualCandidates
	Spatial   float64       // avg Explain.SpatialCandidates
	Speedup   float64       // FilterT / PrunedT
	Equal     bool          // pruned UQ31 ≡ naive UQ31 on every rep
	Predicate string        // canonical predicate key
}

// TextSweep measures pruned vs naive filtered UQ31 for each population
// size, averaging reps query trajectories per size. Tags are assigned
// deterministically (even OIDs "available", every third "ev"); the
// predicate keeps roughly a third of the fleet (available AND NOT ev), so
// the snapshot restriction has real filtering to do while the matching
// sub-MOD stays large enough that envelope refinement dominates the naive
// side. The store's spatial index is warmed once per population before
// timing, mirroring PruneSweep: it is version-cached and amortized across
// every query.
func TextSweep(ns []int, reps int, r float64, seed int64) ([]TextRow, error) {
	if reps <= 0 {
		reps = 3
	}
	if r <= 0 {
		r = 0.5
	}
	where := &textidx.Predicate{All: []string{"available"}, Not: []string{"ev"}}
	var rows []TextRow
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
		matching := 0
		for _, tr := range trs {
			var tags []string
			if tr.OID%2 == 0 {
				tags = append(tags, "available")
			}
			if tr.OID%3 == 0 {
				tags = append(tags, "ev")
			}
			if tags != nil {
				if err := store.SetTags(tr.OID, tags); err != nil {
					return nil, err
				}
			}
			if where.Matches(tags) {
				matching++
			}
		}
		store.BuildIndex(0) // warm the version-cached spatial index

		eng := engine.New(0)
		ctx := context.Background()
		row := TextRow{N: n, Matching: matching, Equal: true, Predicate: where.Key()}
		var filterT, prunedT time.Duration
		var textual, spatial int
		for rep := 0; rep < reps; rep++ {
			q := trs[(rep*7)%n]

			// Naive baseline: linear tag scan to materialize the matching
			// sub-MOD (query exempt), then full-scan envelope refinement
			// over it — correct by construction, index-free.
			start := time.Now()
			var sub []*trajectory.Trajectory
			for _, tr := range store.All() {
				if tr.OID == q.OID || where.Matches(store.Tags(tr.OID)) {
					sub = append(sub, tr)
				}
			}
			fp, err := queries.NewProcessor(sub, q, 0, 60, store.Radius())
			if err != nil {
				return nil, err
			}
			want := fp.UQ31()
			filterT += time.Since(start)

			// Pruned path: the same request through the engine with the
			// predicate attached — the sub-MOD pre-pass narrows the
			// candidates before any envelope is built.
			start = time.Now()
			res, err := eng.Do(ctx, store, engine.Request{
				Kind: engine.KindUQ31, QueryOID: q.OID, Tb: 0, Te: 60, Where: where,
			})
			if err != nil {
				return nil, err
			}
			prunedT += time.Since(start)

			if !slices.Equal(res.OIDs, want) {
				row.Equal = false
			}
			textual += res.Explain.TextualCandidates
			spatial += res.Explain.SpatialCandidates
		}
		row.FilterT = filterT / time.Duration(reps)
		row.PrunedT = prunedT / time.Duration(reps)
		row.Textual = float64(textual) / float64(reps)
		row.Spatial = float64(spatial) / float64(reps)
		if row.PrunedT > 0 {
			row.Speedup = float64(row.FilterT) / float64(row.PrunedT)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatText renders rows as an aligned text table.
func FormatText(rows []TextRow) string {
	s := fmt.Sprintf("%-8s %-9s %-14s %-14s %-10s %-9s %-9s %s\n",
		"N", "matching", "filter+refine", "pruned", "speedup", "textual", "spatial", "equal")
	for _, r := range rows {
		s += fmt.Sprintf("%-8d %-9d %-14s %-14s %-10s %-9.1f %-9.1f %v\n",
			r.N, r.Matching, r.FilterT, r.PrunedT,
			fmt.Sprintf("%.2fx", r.Speedup), r.Textual, r.Spatial, r.Equal)
	}
	return s
}

// CSVText renders rows as CSV.
func CSVText(rows []TextRow) string {
	s := "n,matching,filter_ns,pruned_ns,textual,spatial,speedup,equal\n"
	for _, r := range rows {
		s += fmt.Sprintf("%d,%d,%d,%d,%.1f,%.1f,%.4f,%v\n",
			r.N, r.Matching, r.FilterT.Nanoseconds(), r.PrunedT.Nanoseconds(),
			r.Textual, r.Spatial, r.Speedup, r.Equal)
	}
	return s
}

// textDoc is the BENCH_text.json artifact schema.
type textDoc struct {
	Experiment string        `json:"experiment"`
	Query      string        `json:"query"`
	Predicate  string        `json:"predicate"`
	Radius     float64       `json:"radius"`
	Reps       int           `json:"reps"`
	Seed       int64         `json:"seed"`
	Rows       []textRowJSON `json:"rows"`
}

type textRowJSON struct {
	N        int     `json:"n"`
	Matching int     `json:"matching"`
	FilterNS int64   `json:"filter_ns"`
	PrunedNS int64   `json:"pruned_ns"`
	Textual  float64 `json:"textual"`
	Spatial  float64 `json:"spatial"`
	Speedup  float64 `json:"speedup"`
	Equal    bool    `json:"equal"`
}

// WriteTextJSON emits the benchmark artifact consumed by CI (uploaded as
// BENCH_text.json) and by anyone tracking the spatio-textual speedup.
func WriteTextJSON(w io.Writer, rows []TextRow, r float64, reps int, seed int64) error {
	doc := textDoc{
		Experiment: "spatio-textual sub-MOD pre-pass vs filter-then-refine",
		Query:      "UQ31 with a tag predicate (whole-MOD retrieval over the sub-MOD)",
		Radius:     r, Reps: reps, Seed: seed,
	}
	for _, row := range rows {
		doc.Predicate = row.Predicate
		doc.Rows = append(doc.Rows, textRowJSON{
			N: row.N, Matching: row.Matching,
			FilterNS: row.FilterT.Nanoseconds(), PrunedNS: row.PrunedT.Nanoseconds(),
			Textual: row.Textual, Spatial: row.Spatial,
			Speedup: row.Speedup, Equal: row.Equal,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
