package cityload

// A small city through both topologies, under -race: spot checks hold,
// latency quantiles are ordered, churn actually happened, the artifact
// round-trips through the baseline reader, and the baseline gates only a
// run of its own shape.

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// smallCity is a small, fast city; the committed BENCH_city.json rows use
// the figures-driven scale (N >= 1e5).
func smallCity(seed int64) Config {
	return Config{
		Seed: seed, N: 2000, Subs: 96, Ticks: 10, Workers: 4, R: 0.5,
		UpdateRate: 40, FlipRate: 6, RetireRate: 3, QueryRate: 24, ChurnRate: 3,
		SpotChecks: 8,
	}
}

func TestCitySmallBothTopologies(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := smallCity(1207)
		cfg.N = 400
		cfg.Subs = 48
		cfg.Ticks = 6
		cfg.Shards = shards
		row, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !row.Equal {
			t.Fatalf("shards=%d: spot checks diverged: %+v", shards, row)
		}
		if row.SpotChecks == 0 || row.Updates == 0 || row.Retires == 0 || row.Queries == 0 {
			t.Fatalf("shards=%d: degenerate run: %+v", shards, row)
		}
		if row.QueryP50 > row.QueryP99 || row.QueryP99 <= 0 {
			t.Fatalf("shards=%d: quantiles out of order: p50=%v p99=%v", shards, row.QueryP50, row.QueryP99)
		}
		if row.UpdatesPerSec <= 0 {
			t.Fatalf("shards=%d: no sustained rate: %+v", shards, row)
		}
		// The duplicate-heavy standing population must exercise sharing.
		if row.Shared == 0 {
			t.Fatalf("shards=%d: dirty-set sharing never fired: %+v", shards, row)
		}
		t.Logf("shards=%d: %+v", shards, row)
	}
}

func TestCityScheduleDeterminism(t *testing.T) {
	run := func() Row {
		cfg := smallCity(31)
		cfg.N = 300
		cfg.Subs = 24
		cfg.Ticks = 5
		row, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	a, b := run(), run()
	// Timing differs; the seeded schedule (arrivals, churn, query counts,
	// spot picks) must not.
	if a.Updates != b.Updates || a.Retires != b.Retires || a.SubChurn != b.SubChurn ||
		a.Queries != b.Queries || a.SpotChecks != b.SpotChecks {
		t.Fatalf("schedule diverged across identical seeds:\n%+v\n%+v", a, b)
	}
}

func TestCityArtifactRoundTrip(t *testing.T) {
	rows := []Row{
		{Topology: "single", N: 100000, Subs: 1200, UpdatesPerSec: 52000, QueryP99: 4200000, Equal: true},
		{Topology: "shard4", N: 100000, Subs: 1200, UpdatesPerSec: 61000, QueryP99: 3100000, Equal: true},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rows, 0.5, 42); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"experiment"`) || !strings.Contains(buf.String(), `"updates_per_sec"`) {
		t.Fatalf("artifact missing fields:\n%s", buf.String())
	}
	base, err := ReadBaseline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if base.UpdatesPerSec["shard4"] != 61000 || base.QueryP99NS["single"] != 4200000 {
		t.Fatalf("baseline round trip: %+v", base)
	}
	if s := Format(rows); !strings.Contains(s, "shard4") {
		t.Fatalf("format: %s", s)
	}
}

func TestCityBaselineCheck(t *testing.T) {
	committed := []Row{
		{Topology: "single", Seed: 2009, N: 100000, Subs: 1200, Ticks: 8, UpdatesPerSec: 50, QueryP99: 4 * time.Second, Equal: true},
		{Topology: "shard4", Seed: 2009, N: 100000, Subs: 1200, Ticks: 8, UpdatesPerSec: 60, QueryP99: 3 * time.Second, Equal: true},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, committed, 0.5, 2009); err != nil {
		t.Fatal(err)
	}
	base, err := ReadBaseline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(edit func(*Row)) []Row {
		rows := append([]Row(nil), committed...)
		edit(&rows[1])
		return rows
	}
	for _, tc := range []struct {
		name string
		rows []Row
		want string // "" = the gate passes
	}{
		{"matching", fresh(func(r *Row) { r.UpdatesPerSec, r.QueryP99 = 45, 4*time.Second }), ""},
		{"below the floor", fresh(func(r *Row) { r.UpdatesPerSec = 30 }), "below the baseline floor"},
		{"above the ceiling", fresh(func(r *Row) { r.QueryP99 = 5 * time.Second }), "exceeded the baseline ceiling"},
		{"smaller fleet", fresh(func(r *Row) { r.N, r.Ticks = 2000, 6 }), "does not match the baseline run"},
		{"other seed", fresh(func(r *Row) { r.Seed = 7 }), "does not match the baseline run"},
		{"unknown topology", fresh(func(r *Row) { r.Topology = "shard2" }), "no row for this topology"},
	} {
		err := base.Check(tc.rows, 0.4)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
