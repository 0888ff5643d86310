package cityload

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Format renders rows as an aligned text table.
func Format(rows []Row) string {
	s := fmt.Sprintf("%-8s %-8s %-5s %-8s %-8s %-7s %-8s %-11s %-10s %-10s %-7s %-7s %-7s %s\n",
		"topo", "n", "subs", "updates", "retires", "churn", "queries", "updates/s", "p50", "p99", "evals", "skips", "shared", "equal")
	for _, r := range rows {
		s += fmt.Sprintf("%-8s %-8d %-5d %-8d %-8d %-7d %-8d %-11.0f %-10s %-10s %-7d %-7d %-7d %v\n",
			r.Topology, r.N, r.Subs, r.Updates, r.Retires, r.SubChurn, r.Queries,
			r.UpdatesPerSec, r.QueryP50, r.QueryP99, r.Evals, r.Skips, r.Shared, r.Equal)
	}
	return s
}

// cityDoc is the BENCH_city.json artifact schema.
type cityDoc struct {
	Experiment string        `json:"experiment"`
	Workload   string        `json:"workload"`
	Seed       int64         `json:"seed"`
	Radius     float64       `json:"radius"`
	Rows       []cityRowJSON `json:"rows"`
}

type cityRowJSON struct {
	Topology      string  `json:"topology"`
	N             int     `json:"n"`
	Subs          int     `json:"subs"`
	Ticks         int     `json:"ticks"`
	Updates       int     `json:"updates"`
	Retires       int     `json:"retires"`
	SubChurn      int     `json:"sub_churn"`
	Queries       int     `json:"queries"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	QueryP50NS    int64   `json:"query_p50_ns"`
	QueryP99NS    int64   `json:"query_p99_ns"`
	Evals         uint64  `json:"evals"`
	Skips         uint64  `json:"skips"`
	Shared        uint64  `json:"shared"`
	Equal         bool    `json:"equal"`
	SpotChecks    int     `json:"spot_checks"`
}

// WriteJSON emits the BENCH_city.json artifact consumed by CI: uploaded
// nightly, gated on every row reporting equal=true, and read back as the
// committed baseline for the sustained-updates/s floor and p99 ceiling.
func WriteJSON(w io.Writer, rows []Row, r float64, seed int64) error {
	doc := cityDoc{
		Experiment: "city-scale churn: Poisson update/query/subscription arrivals with TTL-style retirement against live serving topologies",
		Workload: "simtest fleet; per-tick Poisson batches of plan revisions + tag flips + retirements (same-OID re-entry two ticks later); " +
			"standing UQ31/UQ33/UQ11/UQ41 subscriptions (subscribers spread over a bounded pool of distinct questions, incl. tag-filtered " +
			"and whole-horizon rows) with subscribe/unsubscribe churn; one-shot queries timed across seeded per-worker streams",
		Seed: seed, Radius: r,
	}
	for _, row := range rows {
		doc.Rows = append(doc.Rows, cityRowJSON{
			Topology: row.Topology, N: row.N, Subs: row.Subs, Ticks: row.Ticks,
			Updates: row.Updates, Retires: row.Retires, SubChurn: row.SubChurn, Queries: row.Queries,
			UpdatesPerSec: row.UpdatesPerSec,
			QueryP50NS:    int64(row.QueryP50), QueryP99NS: int64(row.QueryP99),
			Evals: row.Evals, Skips: row.Skips, Shared: row.Shared,
			Equal: row.Equal, SpotChecks: row.SpotChecks,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Baseline is the committed-artifact view the nightly gate reads before
// overwriting BENCH_city.json: per topology, the run's shape and its
// sustained updates/s and p99.
type Baseline struct {
	Shape         map[string]Shape
	UpdatesPerSec map[string]float64
	QueryP99NS    map[string]int64
}

// Shape is what two city runs must share for their numbers to compare.
type Shape struct {
	Seed           int64
	N, Subs, Ticks int
}

// ReadBaseline parses a committed BENCH_city.json.
func ReadBaseline(r io.Reader) (Baseline, error) {
	var doc cityDoc
	b := Baseline{Shape: map[string]Shape{}, UpdatesPerSec: map[string]float64{}, QueryP99NS: map[string]int64{}}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return b, err
	}
	for _, row := range doc.Rows {
		b.Shape[row.Topology] = Shape{Seed: doc.Seed, N: row.N, Subs: row.Subs, Ticks: row.Ticks}
		b.UpdatesPerSec[row.Topology] = row.UpdatesPerSec
		b.QueryP99NS[row.Topology] = row.QueryP99NS
	}
	return b, nil
}

// Check gates fresh rows against the baseline: each row's sustained
// updates/s must hold the baseline's minus tol, and its query p99 must stay
// under the baseline's plus tol. A row whose topology the baseline lacks,
// or whose seed, fleet, subscriptions or ticks differ from the baseline
// row's, is an error: numbers from unlike runs gate nothing.
func (b Baseline) Check(rows []Row, tol float64) error {
	for _, r := range rows {
		want, ok := b.Shape[r.Topology]
		if !ok {
			return fmt.Errorf("city %s: the baseline has no row for this topology", r.Topology)
		}
		if got := (Shape{Seed: r.Seed, N: r.N, Subs: r.Subs, Ticks: r.Ticks}); got != want {
			return fmt.Errorf("city %s: fresh run %+v does not match the baseline run %+v", r.Topology, got, want)
		}
		if base := b.UpdatesPerSec[r.Topology]; base > 0 {
			if floor := base * (1 - tol); r.UpdatesPerSec < floor {
				return fmt.Errorf("city %s: sustained %.0f updates/s fell below the baseline floor %.0f (baseline %.0f - %.0f%%)",
					r.Topology, r.UpdatesPerSec, floor, base, tol*100)
			}
		}
		if base := b.QueryP99NS[r.Topology]; base > 0 {
			if ceiling := float64(base) * (1 + tol); float64(r.QueryP99) > ceiling {
				return fmt.Errorf("city %s: query p99 %v exceeded the baseline ceiling %v (baseline %v + %.0f%%)",
					r.Topology, r.QueryP99, time.Duration(ceiling), time.Duration(base), tol*100)
			}
		}
	}
	return nil
}
