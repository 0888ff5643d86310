// Command figures regenerates the paper's evaluation figures (Section 5)
// as text tables and optional CSV files:
//
//	figures -fig 11                 # lower-envelope construction time
//	figures -fig 12                 # UQ11/UQ13 query time
//	figures -fig 13                 # pruning power vs uncertainty radius
//	figures -fig par                # parallel batch engine vs serial loops
//	figures -fig prune              # index-accelerated pruning vs full scan
//	figures -fig text               # spatio-textual sub-MOD pre-pass vs filter-then-refine (make bench-text)
//	figures -fig api                # Engine.Do overhead gate (make bench-api)
//	figures -fig shard              # sharded router vs single engine (make bench-shard)
//	figures -fig shard -large       # the same sweep at the large population (make bench-shard-large)
//	figures -fig city               # city-scale Poisson churn harness (make bench-city, nightly)
//	figures -fig summary            # markdown table over BENCH_*.json artifacts (CI step summary)
//	figures -fig all -csv out/      # everything, with CSVs
//
// Flags tune the sweep sizes so the full paper range (N up to 12000) or a
// laptop-friendly subset can be selected. The -min-speedup family turns
// measured speedups into CI gates (0 disables each), and -shard-baseline
// gates a fresh shard sweep against a committed artifact minus a relative
// tolerance — the benchmark-regression harness.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cityload"
)

func main() {
	var (
		fig         = flag.String("fig", "all", "which figure to regenerate: 11, 12, 13, e4 or all")
		ns          = flag.String("n", "1000,2000,4000,6000,8000,10000,12000", "comma-separated population sizes for figures 11-12")
		naiveCap    = flag.Int("naive-cap", 4000, "largest N for the O(N²logN) naive baselines (0 = no cap)")
		queries     = flag.Int("queries", 100, "random target selections per size for figure 12")
		radii       = flag.String("r", "0.1,0.25,0.5,0.75,1,1.5,2,3,4,5", "comma-separated uncertainty radii (miles) for figure 13")
		fig13Ns     = flag.String("fig13-n", "2000,10000", "population sizes for figure 13")
		parNs       = flag.String("par-n", "1000,2000,4000", "population sizes for the parallel-batch experiment")
		parK        = flag.Int("par-k", 3, "deepest rank in the parallel-batch experiment")
		workers     = flag.Int("workers", 0, "worker count for the parallel-batch experiment (0 = one per CPU)")
		pruneNs     = flag.String("prune-n", "500,1000,2000,4000", "population sizes for the index-pruning experiment")
		pruneRep    = flag.Int("prune-reps", 3, "query trajectories averaged per size in the index-pruning experiment")
		pruneOut    = flag.String("prune-json", "", "path to write the BENCH_prune.json artifact (optional)")
		textNs      = flag.String("text-n", "500,1000,2000,4000", "population sizes for the spatio-textual experiment")
		textReps    = flag.Int("text-reps", 3, "query trajectories averaged per size in the spatio-textual experiment")
		textOut     = flag.String("text-json", "", "path to write the BENCH_text.json artifact (optional)")
		textMin     = flag.Float64("text-min-speedup", 1, "fail when the sub-MOD pre-pass speedup at the largest N falls below this (0 disables)")
		shardN      = flag.Int("shard-n", 500, "population size for the shard-scaling experiment")
		shardReps   = flag.Int("shard-reps", 3, "query trajectories per shard-scaling rep")
		shardPasses = flag.Int("shard-passes", 3, "interleaved single/router measurement passes per shard row")
		shardCnts   = flag.String("shard-counts", "1,2,4,8", "comma-separated shard counts for the shard-scaling experiment")
		shardOut    = flag.String("shard-json", "", "path to write the BENCH_shard.json artifact (optional)")
		large       = flag.Bool("large", false, "grow the shard sweep to the large population (N=50000, 2 reps, 2 passes) unless set explicitly")
		minSpeedup  = flag.Float64("min-speedup", 0, "fail when the best multi-shard speedup falls below this (0 disables)")
		shardBase   = flag.String("shard-baseline", "", "committed BENCH_shard.json to gate the fresh sweep against (optional)")
		shardTol    = flag.Float64("shard-tolerance", 0.25, "relative tolerance for the -shard-baseline gate (0.25 = fresh best speedup may be 25% below baseline)")
		pruneMin    = flag.Float64("prune-min-speedup", 0, "fail when the index-pruning speedup at the largest N falls below this (0 disables)")
		liveMin     = flag.Float64("live-min-speedup", 1, "fail when the live-hub speedup falls below this (the hub must beat the naive re-query; 0 disables)")
		summaryDir  = flag.String("summary-dir", ".", "directory scanned for BENCH_*.json by -fig summary")
		liveNs      = flag.String("live-n", "1000,4000", "population sizes for the live-serving experiment")
		liveSubs    = flag.Int("live-subs", 24, "standing subscriptions in the live-serving experiment")
		liveSteps   = flag.Int("live-steps", 12, "scripted ingest batches in the live-serving experiment")
		livePer     = flag.Int("live-per-step", 6, "plan revisions per ingest batch in the live-serving experiment")
		liveOut     = flag.String("live-json", "", "path to write the BENCH_live.json artifact (optional)")
		cityN       = flag.Int("city-n", 100000, "fleet size for the city-scale churn harness")
		citySubs    = flag.Int("city-subs", 1200, "standing subscriptions in the city-scale churn harness")
		cityTicks   = flag.Int("city-ticks", 8, "load ticks in the city-scale churn harness")
		cityShapes  = flag.Int("city-shapes", 48, "distinct standing questions the subscription population spreads over")
		cityWorkers = flag.Int("city-workers", 4, "concurrent one-shot query workers in the city harness")
		cityShards  = flag.String("city-shards", "0,4", "comma-separated shard counts for the city harness (0 = single hub)")
		cityOut     = flag.String("city-json", "", "path to write the BENCH_city.json artifact (optional)")
		cityBase    = flag.String("city-baseline", "", "committed BENCH_city.json to gate the fresh run against (optional)")
		cityTol     = flag.Float64("city-tolerance", 0.4, "relative tolerance for the -city-baseline gates (updates/s floor and p99 ceiling)")
		apiN        = flag.Int("api-n", 1000, "population size for the Engine.Do overhead gate")
		apiReps     = flag.Int("api-reps", 15, "timed repetitions for the Engine.Do overhead gate")
		apiMax      = flag.Float64("api-max-overhead", 5, "fail when Engine.Do overhead exceeds this percentage (0 disables)")
		seed        = flag.Int64("seed", 2009, "workload RNG seed")
		csvDir      = flag.String("csv", "", "directory to write CSV series into (optional)")
	)
	flag.Parse()

	if *large {
		// Grow the shard sweep without overriding anything the caller set
		// explicitly; fewer reps/passes keep the 50k run inside a nightly
		// budget while each pass stays long enough to time reliably.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["shard-n"] {
			*shardN = 50000
		}
		if !set["shard-reps"] {
			*shardReps = 2
		}
		if !set["shard-passes"] {
			*shardPasses = 2
		}
	}

	if *fig == "summary" {
		if err := summarize(*summaryDir); err != nil {
			fatal(err)
		}
		return
	}

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

	sizesPar, err := parseInts(*parNs)
	if err != nil {
		fatal(err)
	}

	sizesPrune, err := parseInts(*pruneNs)
	if err != nil {
		fatal(err)
	}

	run11 := *fig == "11" || *fig == "all"
	run12 := *fig == "12" || *fig == "all"
	run13 := *fig == "13" || *fig == "all"
	runE4 := *fig == "e4" || *fig == "all"
	runPar := *fig == "par" || *fig == "all"
	runPrune := *fig == "prune" || *fig == "all"
	runText := *fig == "text" || *fig == "all"
	runAPI := *fig == "api" || *fig == "all"
	runShard := *fig == "shard" || *fig == "all"
	runLive := *fig == "live" || *fig == "all"
	runCity := *fig == "city" // nightly-scale; never part of "all"
	if !run11 && !run12 && !run13 && !runE4 && !runPar && !runPrune && !runText && !runAPI && !runShard && !runLive && !runCity {
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
	if runPar {
		fmt.Println("== Parallel batch engine: UQ41/UQ43 batches, serial vs worker pool ==")
		rows, err := bench.ParallelBatch(sizesPar, *parK, *workers, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.FormatParallel(rows))
		writeCSV("parallel.csv", bench.CSVParallel(rows))
		fmt.Println()
	}
	if runPrune {
		fmt.Println("== Index-accelerated pruning: UQ31 latency, indexed vs full scan ==")
		const pruneRadius = 0.5 // the paper's default uncertainty radius
		rows, err := bench.PruneSweep(sizesPrune, *pruneRep, pruneRadius, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.FormatPrune(rows))
		writeCSV("prune.csv", bench.CSVPrune(rows))
		if *pruneOut != "" {
			f, err := os.Create(*pruneOut)
			if err != nil {
				fatal(err)
			}
			if err := bench.WritePruneJSON(f, rows, pruneRadius, *pruneRep, *seed); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *pruneOut)
		}
		// The equal flag is a correctness gate, not just a column: a
		// divergence between the indexed and full-scan answer sets must
		// fail the run (and CI), after the evidence has been written.
		for _, r := range rows {
			if !r.Equal {
				fatal(fmt.Errorf("index-pruned UQ31 diverged from full scan at N=%d", r.N))
			}
		}
		if *pruneMin > 0 && len(rows) > 0 {
			last := rows[len(rows)-1]
			if last.Speedup < *pruneMin {
				fatal(fmt.Errorf("index-pruning speedup %.2fx at N=%d is below the %.2fx gate", last.Speedup, last.N, *pruneMin))
			}
		}
	}
	if runText {
		fmt.Println("== Spatio-textual: sub-MOD pre-pass vs filter-then-refine (filtered UQ31) ==")
		const textRadius = 0.5
		sizesText, err := parseInts(*textNs)
		if err != nil {
			fatal(err)
		}
		rows, err := bench.TextSweep(sizesText, *textReps, textRadius, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.FormatText(rows))
		writeCSV("text.csv", bench.CSVText(rows))
		if *textOut != "" {
			f, err := os.Create(*textOut)
			if err != nil {
				fatal(err)
			}
			if err := bench.WriteTextJSON(f, rows, textRadius, *textReps, *seed); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *textOut)
		}
		// Correctness first: a divergence between the pruned path and the
		// filter-then-refine baseline fails the run after the evidence is
		// on disk. Then the pruning must actually pay at the largest N.
		for _, r := range rows {
			if !r.Equal {
				fatal(fmt.Errorf("pruned filtered UQ31 diverged from filter-then-refine at N=%d", r.N))
			}
		}
		if *textMin > 0 && len(rows) > 0 {
			last := rows[len(rows)-1]
			if last.Speedup < *textMin {
				fatal(fmt.Errorf("sub-MOD pre-pass speedup %.2fx at N=%d is below the %.2fx gate", last.Speedup, last.N, *textMin))
			}
		}
	}
	if runAPI {
		fmt.Println("== Unified API: Engine.Do overhead vs direct Processor calls (UQ31) ==")
		row, err := bench.APIOverhead(*apiN, *apiReps, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.FormatAPI(row))
		if !row.Equal {
			fatal(fmt.Errorf("Engine.Do answer diverged from the direct Processor call"))
		}
		if *apiMax > 0 && row.OverheadPct > *apiMax {
			fatal(fmt.Errorf("Engine.Do overhead %.2f%% exceeds the %.1f%% gate", row.OverheadPct, *apiMax))
		}
	}
	if runShard {
		fmt.Println("== Sharded serving: Router over K local shards vs single engine ==")
		counts, err := parseInts(*shardCnts)
		if err != nil {
			fatal(err)
		}
		// The committed baseline must be read before the fresh artifact
		// overwrites it (CI points both at the same path).
		baseline := 0.0
		if *shardBase != "" {
			b, err := bestShardSpeedup(*shardBase)
			if err != nil {
				fatal(fmt.Errorf("reading -shard-baseline: %w", err))
			}
			baseline = b
		}
		const shardRadius = 0.5 // the paper's default uncertainty radius
		rows, err := bench.ShardScaling(*shardN, counts, *shardReps, *shardPasses, shardRadius, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.FormatShard(rows))
		writeCSV("shard.csv", bench.CSVShard(rows))
		if *shardOut != "" {
			f, err := os.Create(*shardOut)
			if err != nil {
				fatal(err)
			}
			if err := bench.WriteShardJSON(f, rows, *shardN, *shardReps, shardRadius, *seed); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *shardOut)
		}
		// Like bench-prune, equal is a correctness gate: a router that
		// diverges from the single-store engine fails the run (and CI)
		// after the evidence has been written.
		for _, r := range rows {
			if !r.Equal {
				fatal(fmt.Errorf("router over %d shards diverged from the single-store engine", r.Shards))
			}
		}
		// Performance gates, absolute then relative: the best multi-shard
		// speedup must clear -min-speedup, and must not regress more than
		// -shard-tolerance below the committed baseline.
		best := 0.0
		for _, r := range rows {
			if r.Shards > 1 && r.Speedup > best {
				best = r.Speedup
			}
		}
		if *minSpeedup > 0 && best < *minSpeedup {
			fatal(fmt.Errorf("best multi-shard speedup %.2fx is below the %.2fx gate", best, *minSpeedup))
		}
		if baseline > 0 {
			floor := baseline * (1 - *shardTol)
			if best < floor {
				fatal(fmt.Errorf("best multi-shard speedup %.2fx regressed below the baseline %.2fx minus %.0f%% tolerance (floor %.2fx)",
					best, baseline, *shardTol*100, floor))
			}
			fmt.Printf("baseline gate: best %.2fx vs floor %.2fx (baseline %.2fx - %.0f%%)\n",
				best, floor, baseline, *shardTol*100)
		}
	}
	if runLive {
		fmt.Println("== Live serving: continuous-query hub (dirty set) vs naive full re-query ==")
		liveSizes, err := parseInts(*liveNs)
		if err != nil {
			fatal(err)
		}
		const liveRadius = 0.5 // the paper's default uncertainty radius
		var rows []bench.LiveRow
		for _, n := range liveSizes {
			row, err := bench.LiveServing(n, *liveSubs, *liveSteps, *livePer, liveRadius, *seed)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, row)
		}
		fmt.Print(bench.FormatLive(rows))
		if *liveOut != "" {
			f, err := os.Create(*liveOut)
			if err != nil {
				fatal(err)
			}
			if err := bench.WriteLiveJSON(f, rows, liveRadius, *seed); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *liveOut)
		}
		// Correctness gate first (like bench-prune/bench-shard), then the
		// headline claim: dirty-set re-evaluation must beat the naive full
		// re-query on the scripted workload by at least -live-min-speedup.
		for _, r := range rows {
			if !r.Equal {
				fatal(fmt.Errorf("live hub answers diverged from the naive full re-query at n=%d", r.N))
			}
			if *liveMin > 0 && r.Speedup <= *liveMin {
				fatal(fmt.Errorf("live hub (%.2fx) did not clear the %.2fx gate over the naive full re-query at n=%d", r.Speedup, *liveMin, r.N))
			}
		}
	}
	if runCity {
		fmt.Println("== City-scale churn: Poisson update/query/subscription arrivals with retirement ==")
		shardCounts, err := parseInts(*cityShards)
		if err != nil {
			fatal(err)
		}
		// Read the committed baseline BEFORE the fresh run overwrites the
		// artifact path (the shard gate's read-before-overwrite pattern).
		var baseline cityload.Baseline
		haveBaseline := false
		if *cityBase != "" {
			f, err := os.Open(*cityBase)
			if err != nil {
				fatal(err)
			}
			baseline, err = cityload.ReadBaseline(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			haveBaseline = true
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
		if haveBaseline {
			for _, r := range rows {
				if base, ok := baseline.UpdatesPerSec[r.Topology]; ok && base > 0 {
					floor := base * (1 - *cityTol)
					if r.UpdatesPerSec < floor {
						fatal(fmt.Errorf("city %s: sustained %.0f updates/s fell below the baseline floor %.0f (baseline %.0f - %.0f%%)",
							r.Topology, r.UpdatesPerSec, floor, base, *cityTol*100))
					}
					fmt.Printf("city %s: updates/s gate ok (%.0f vs floor %.0f)\n", r.Topology, r.UpdatesPerSec, floor)
				}
				if base, ok := baseline.QueryP99NS[r.Topology]; ok && base > 0 {
					ceiling := float64(base) * (1 + *cityTol)
					if float64(r.QueryP99) > ceiling {
						fatal(fmt.Errorf("city %s: query p99 %v exceeded the baseline ceiling %v (baseline %v + %.0f%%)",
							r.Topology, r.QueryP99, time.Duration(ceiling), time.Duration(base), *cityTol*100))
					}
					fmt.Printf("city %s: p99 gate ok (%v vs ceiling %v)\n", r.Topology, r.QueryP99, time.Duration(ceiling))
				}
			}
		}
	}
}

// bestShardSpeedup reads a BENCH_shard.json artifact and returns the best
// speedup among its multi-shard rows — the quantity the regression gate
// compares fresh runs against.
func bestShardSpeedup(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		Rows []struct {
			Shards  int     `json:"shards"`
			Speedup float64 `json:"speedup"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	best := 0.0
	for _, r := range doc.Rows {
		if r.Shards > 1 && r.Speedup > best {
			best = r.Speedup
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("%s: no multi-shard rows", path)
	}
	return best, nil
}

// summarize renders every BENCH_*.json artifact under dir as one markdown
// document — CI appends it to $GITHUB_STEP_SUMMARY so each run shows its
// benchmark evidence without downloading artifacts. Every artifact shares
// the {experiment, rows: [...]} shape; row columns are emitted in sorted
// key order for determinism.
func summarize(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	fmt.Println("## Benchmark summary")
	if len(paths) == 0 {
		fmt.Printf("\nNo BENCH_*.json artifacts under %s.\n", dir)
		return nil
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var doc struct {
			Experiment string           `json:"experiment"`
			Rows       []map[string]any `json:"rows"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("\n### %s\n\n", filepath.Base(path))
		if doc.Experiment != "" {
			fmt.Printf("%s\n\n", doc.Experiment)
		}
		if len(doc.Rows) == 0 {
			fmt.Println("(no rows)")
			continue
		}
		keys := make([]string, 0, len(doc.Rows[0]))
		for k := range doc.Rows[0] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("| %s |\n", strings.Join(keys, " | "))
		fmt.Printf("|%s\n", strings.Repeat("---|", len(keys)))
		for _, row := range doc.Rows {
			cells := make([]string, len(keys))
			for i, k := range keys {
				cells[i] = summaryCell(row[k])
			}
			fmt.Printf("| %s |\n", strings.Join(cells, " | "))
		}
	}
	return nil
}

// summaryCell formats one artifact value for the markdown table: integral
// floats (JSON numbers decode as float64) print without a fraction, the
// rest keep four significant digits.
func summaryCell(v any) string {
	switch x := v.(type) {
	case float64:
		if x == float64(int64(x)) {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', 4, 64)
	case nil:
		return ""
	default:
		return fmt.Sprintf("%v", x)
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
