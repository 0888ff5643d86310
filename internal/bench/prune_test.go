package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/workload"
)

func TestPruneSweep(t *testing.T) {
	rows, err := PruneSweep([]int{150}, 2, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if !r.Equal {
		t.Fatalf("indexed and full UQ31 diverged: %+v", r)
	}
	if r.Candidates != 149 || r.Survivors > float64(r.Candidates) || r.Survivors <= 0 {
		t.Fatalf("implausible selectivity: %+v", r)
	}
	if r.FullT <= 0 || r.IndexedT <= 0 {
		t.Fatalf("non-positive timings: %+v", r)
	}
	if !strings.Contains(FormatPrune(rows), "speedup") {
		t.Fatalf("FormatPrune missing header")
	}
	if !strings.Contains(CSVPrune(rows), "full_ns") {
		t.Fatalf("CSVPrune missing header")
	}
	var buf bytes.Buffer
	if err := WritePruneJSON(&buf, rows, 0.5, 2, 42); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if doc["experiment"] == "" || doc["rows"] == nil {
		t.Fatalf("artifact missing fields: %v", doc)
	}
}

func benchStore(b *testing.B, n int) (*mod.Store, int64) {
	b.Helper()
	trs, err := workload.Generate(workload.DefaultConfig(2009), n)
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
	store.BuildIndex(0)
	return store, trs[0].OID
}

// BenchmarkUQ31Indexed measures the index-accelerated end-to-end UQ31
// (candidate pre-pass + pruned preprocessing + retrieval).
func BenchmarkUQ31Indexed(b *testing.B) {
	store, qOID := benchStore(b, 1000)
	b.ResetTimer()
	q, err := store.Get(qOID)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		proc, err := prune.ForQueryWhereCtx(context.Background(), store, q, 0, 60, nil)
		if err != nil {
			b.Fatal(err)
		}
		proc.UQ31()
	}
}

// BenchmarkUQ31FullScan is the full-preprocessing baseline.
func BenchmarkUQ31FullScan(b *testing.B) {
	store, qOID := benchStore(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := store.Get(qOID)
		if err != nil {
			b.Fatal(err)
		}
		proc, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
		if err != nil {
			b.Fatal(err)
		}
		proc.UQ31()
	}
}

// BenchmarkBelowIntervals isolates the refine hot path the squared-
// comparison rewrite targets: one zone scan per candidate.
func BenchmarkBelowIntervals(b *testing.B) {
	store, qOID := benchStore(b, 500)
	q, err := store.Get(qOID)
	if err != nil {
		b.Fatal(err)
	}
	proc, err := prune.ForQueryWhereCtx(context.Background(), store, q, 0, 60, nil)
	if err != nil {
		b.Fatal(err)
	}
	oids := proc.CandidateOIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proc.PossibleNNIntervals(oids[i%len(oids)]); err != nil {
			b.Fatal(err)
		}
	}
}
