package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTextSweep(t *testing.T) {
	rows, err := TextSweep([]int{150}, 2, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if !r.Equal {
		t.Fatalf("pruned and filter-then-refine UQ31 diverged: %+v", r)
	}
	if r.Matching <= 0 || r.Matching >= r.N {
		t.Fatalf("degenerate predicate selectivity: %+v", r)
	}
	if r.Textual <= 0 || r.Spatial <= 0 || r.Textual > r.Spatial {
		t.Fatalf("implausible candidate split: %+v", r)
	}
	if r.FilterT <= 0 || r.PrunedT <= 0 {
		t.Fatalf("non-positive timings: %+v", r)
	}
	if !strings.Contains(FormatText(rows), "speedup") {
		t.Fatalf("FormatText missing header")
	}
	if !strings.Contains(CSVText(rows), "pruned_ns") {
		t.Fatalf("CSVText missing header")
	}
	var buf bytes.Buffer
	if err := WriteTextJSON(&buf, rows, 0.5, 2, 42); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if doc["experiment"] == "" || doc["rows"] == nil || doc["predicate"] == "" {
		t.Fatalf("artifact missing fields: %v", doc)
	}
}
