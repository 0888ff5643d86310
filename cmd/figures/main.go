// Command figures regenerates the paper's evaluation figures (Section 5)
// as text tables and optional CSV files:
//
//	figures -fig 11                 # lower-envelope construction time
//	figures -fig 12                 # UQ11/UQ13 query time
//	figures -fig 13                 # pruning power vs uncertainty radius
//	figures -fig e4                 # pruning power, uniform vs clustered workload
//	figures -fig all -csv out/      # all four, with CSVs
//	figures -fig city               # city-scale Poisson churn harness (make bench-city, nightly)
//
// Flags tune the sweep sizes so the full paper range (N up to 12000) or a
// laptop-friendly subset can be selected. The city harness is never part
// of "all": it writes the BENCH_city.json artifact, and -city-baseline
// gates a fresh run against a committed one of the same shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/cityload"
)

func main() {
	var (
		fig         = flag.String("fig", "all", "which figure to regenerate: 11, 12, 13, e4, all (the four) or city")
		ns          = flag.String("n", "1000,2000,4000,6000,8000,10000,12000", "comma-separated population sizes for figures 11-12")
		naiveCap    = flag.Int("naive-cap", 4000, "largest N for the O(N²logN) naive baselines (0 = no cap)")
		queries     = flag.Int("queries", 100, "random target selections per size for figure 12")
		radii       = flag.String("r", "0.1,0.25,0.5,0.75,1,1.5,2,3,4,5", "comma-separated uncertainty radii (miles) for figure 13")
		fig13Ns     = flag.String("fig13-n", "2000,10000", "population sizes for figure 13")
		cityN       = flag.Int("city-n", 100000, "fleet size for the city-scale churn harness")
		citySubs    = flag.Int("city-subs", 1200, "standing subscriptions in the city-scale churn harness")
		cityTicks   = flag.Int("city-ticks", 8, "load ticks in the city-scale churn harness")
		cityShapes  = flag.Int("city-shapes", 48, "distinct standing questions the subscription population spreads over")
		cityWorkers = flag.Int("city-workers", 4, "concurrent one-shot query workers in the city harness")
		cityShards  = flag.String("city-shards", "0,4", "comma-separated shard counts for the city harness (0 = single hub)")
		cityOut     = flag.String("city-json", "", "path to write the BENCH_city.json artifact (optional)")
		cityBase    = flag.String("city-baseline", "", "committed BENCH_city.json to gate the fresh run against (optional)")
		cityTol     = flag.Float64("city-tolerance", 0.4, "relative tolerance for the -city-baseline gates (updates/s floor and p99 ceiling)")
		seed        = flag.Int64("seed", 2009, "workload RNG seed")
		csvDir      = flag.String("csv", "", "directory to write CSV series into (optional)")
	)
	flag.Parse()

	sizes, err := parseInts(*ns)
	if err != nil {
		fatal(err)
	}
	rs, err := parseFloats(*radii)
	if err != nil {
		fatal(err)
	}
	sizes13, err := parseInts(*fig13Ns)
	if err != nil {
		fatal(err)
	}

	writeCSV := func(name, content string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*csvDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	run11 := *fig == "11" || *fig == "all"
	run12 := *fig == "12" || *fig == "all"
	run13 := *fig == "13" || *fig == "all"
	runE4 := *fig == "e4" || *fig == "all"
	runCity := *fig == "city" // nightly-scale; never part of "all"
	if !run11 && !run12 && !run13 && !runE4 && !runCity {
		fatal(fmt.Errorf("unknown -fig %q", *fig))
	}

	if run11 {
		fmt.Println("== Figure 11: lower-envelope construction time ==")
		rows, err := bench.Fig11(sizes, *naiveCap, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.FormatFig11(rows))
		writeCSV("fig11.csv", bench.CSVFig11(rows))
		fmt.Println()
	}
	if run12 {
		fmt.Println("== Figure 12: existential (UQ11) and quantitative (UQ13, X=50%) query time ==")
		rows, err := bench.Fig12(sizes, *naiveCap, *queries, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.FormatFig12(rows))
		writeCSV("fig12.csv", bench.CSVFig12(rows))
		fmt.Println()
	}
	if run13 {
		fmt.Println("== Figure 13: pruning power of the lower envelope ==")
		rows, err := bench.Fig13(rs, sizes13, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.FormatFig13(rows))
		writeCSV("fig13.csv", bench.CSVFig13(rows))
		fmt.Println()
	}
	if runE4 {
		fmt.Println("== Extension E4: pruning power, uniform vs clustered workload ==")
		rows, err := bench.E4ClusteredPruning(rs, 2000, 4, 1.5, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.FormatE4(rows))
		writeCSV("e4.csv", bench.CSVE4(rows))
		fmt.Println()
	}
	if runCity {
		fmt.Println("== City-scale churn: Poisson update/query/subscription arrivals with retirement ==")
		shardCounts, err := parseInts(*cityShards)
		if err != nil {
			fatal(err)
		}
		// Read the committed baseline BEFORE the fresh run overwrites the
		// artifact path (nightly CI points both at the same file).
		var baseline *cityload.Baseline
		if *cityBase != "" {
			f, err := os.Open(*cityBase)
			if err != nil {
				fatal(err)
			}
			b, err := cityload.ReadBaseline(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			baseline = &b
		}
		var rows []cityload.Row
		for _, shards := range shardCounts {
			cfg := cityload.Config{
				Seed: *seed, N: *cityN, Subs: *citySubs, Ticks: *cityTicks,
				Workers: *cityWorkers, Shards: shards, R: 0.5,
				Shapes: *cityShapes,
				// Arrival means per tick: sized so the default 8-tick run
				// pushes ~3.6k updates and ~400 timed queries through the
				// hub. Per-eval cost at N=1e5 is seconds (the window
				// queries barely prune at city density), so wall time is
				// bounded by distinct dirty shapes per tick, not by these
				// rates.
				UpdateRate: 400, FlipRate: 40, RetireRate: 12,
				QueryRate: 50, ChurnRate: 6, SpotChecks: 12,
			}
			row, err := cityload.Run(cfg)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, row)
			fmt.Print(cityload.Format(rows[len(rows)-1:]))
		}
		if *cityOut != "" {
			f, err := os.Create(*cityOut)
			if err != nil {
				fatal(err)
			}
			if err := cityload.WriteJSON(f, rows, 0.5, *seed); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *cityOut)
		}
		// Correctness gate first: every spot check byte-identical under
		// churn. Then the baseline gates: sustained updates/s must hold a
		// floor and query p99 a ceiling relative to the committed artifact.
		for _, r := range rows {
			if !r.Equal {
				fatal(fmt.Errorf("city %s: spot checks diverged from the fresh snapshot re-query", r.Topology))
			}
		}
		if baseline != nil {
			if err := baseline.Check(rows, *cityTol); err != nil {
				fatal(err)
			}
			fmt.Printf("city baseline gates ok (updates/s floor and p99 ceiling at %.0f%%)\n", *cityTol*100)
		}
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
