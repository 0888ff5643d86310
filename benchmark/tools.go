package main

// Repeatability tooling around the single run: -repeat (fresh processes,
// medians and spread), -compare (the bounds applied to two sets of runs),
// -verify-counts (count metrics must repeat exactly) and the trace
// summary.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

func loadRecords(path string) ([]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func appendRecords(path string, recs []runRecord) error {
	old, err := loadRecords(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	b, err := json.MarshalIndent(append(old, recs...), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the rule the
// acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spreadOf is the interquartile distance as a share of the median.
func spreadOf(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(q2))
}

// repeatRuns runs the workload (or all four) k times, each in a fresh
// process on its own seed, and prints how steady every metric was.
func repeatRuns(w io.Writer, o options, k int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var names []string
	if o.workload == "all" {
		for _, spec := range workloads {
			names = append(names, spec.Name)
		}
	} else if _, ok := findWorkload(o.workload); ok {
		names = []string{o.workload}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	defs := endToEnd
	if o.trace != 0 {
		defs = perLayer
	}
	// Each child appends its own record to the -out file; without one the
	// records pass through a file in the work directory.
	if out == "" {
		if err := os.MkdirAll(o.workDir, 0o755); err != nil {
			return err
		}
		out = filepath.Join(o.workDir, fmt.Sprintf("repeat-%d.json", os.Getpid()))
		defer os.Remove(out)
	}
	for _, name := range names {
		var recs []runRecord
		for i := 0; i < k; i++ {
			seed := strconv.FormatInt(o.seed+int64(i), 10)
			t0 := time.Now()
			cmd := exec.Command(self,
				"-workload", name, "-seed", seed, "-seconds", strconv.Itoa(o.seconds),
				"-trace", strconv.Itoa(o.trace), "-work-dir", o.workDir, "-out", out)
			cmd.Stderr = os.Stderr
			if stdout, err := cmd.Output(); err != nil {
				return fmt.Errorf("%s seed %s: %w\n%s", name, seed, err, stdout)
			}
			all, err := loadRecords(out)
			if err != nil {
				return err
			}
			r := all[len(all)-1]
			// The run's own note on stolen host CPU explains most outliers.
			fmt.Fprintf(w, "%s seed=%s attempted=%d failed=%d (%.1fs, host-steal %.1f%%)\n",
				name, seed, r.Attempted, r.Failed, time.Since(t0).Seconds(), 100*r.HostSteal)
			recs = append(recs, r)
		}
		fmt.Fprintf(w, "%s: %d runs\n  %-36s %12s %12s %12s %8s %8s\n", name, k, "metric", "median", "q1", "q3", "iqr%", "maxdev%")
		for _, d := range defs {
			var xs []float64
			for _, r := range recs {
				xs = append(xs, r.Metrics[d.Name].Value)
			}
			q1, q2, q3 := quartiles(xs)
			var dev float64
			for _, x := range xs {
				dev = max(dev, ratio(math.Abs(x-q2), math.Abs(q2)))
			}
			fmt.Fprintf(w, "  %-36s %12.4f %12.4f %12.4f %8.2f %8.2f\n", d.Name, q2, q1, q3, 100*spreadOf(xs), 100*dev)
		}
	}
	return nil
}

// A run during which the hypervisor took more than maxHostSteal of the
// host's CPU says more about the neighbours than about the program:
// -compare leaves it out, and needs minQuietRuns runs per side to judge.
const (
	maxHostSteal = 0.05
	minQuietRuns = 3
)

// byWorkload groups the quiet untraced records' values per workload and
// metric, and counts per workload the records left out as noisy.
func byWorkload(recs []runRecord) (values map[string]map[string][]float64, noisy map[string]int) {
	values, noisy = make(map[string]map[string][]float64), make(map[string]int)
	for _, r := range recs {
		if r.Trace != 0 {
			continue
		}
		if r.HostSteal > maxHostSteal {
			noisy[r.Workload]++
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v.Value)
		}
	}
	return values, noisy
}

// compareFiles applies the end-to-end bounds to two sets of runs: a
// metric regressed when the change's median is worse than the parent's by
// more than its bound; it is unresolved when either side's own spread is
// wider than the bound or has too few quiet runs; "watch" when it worsened
// by more than the issue's tighter bound; ok otherwise.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := loadRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := loadRecords(changePath)
	if err != nil {
		return err
	}
	if len(parent) == 0 || len(change) == 0 {
		return errors.New("a record file holds no runs")
	}
	// Op counts follow -seconds, so runs of different lengths do not compare.
	for _, r := range slices.Concat(parent, change) {
		if r.Seconds != parent[0].Seconds {
			return fmt.Errorf("runs sized for %d s and for %d s do not compare", parent[0].Seconds, r.Seconds)
		}
	}
	a, noisyA := byWorkload(parent)
	b, noisyB := byWorkload(change)
	compared, regressed := 0, 0
	fmt.Fprintf(w, "%-16s %-22s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "parent", "change", "worse%", "spread%", "bound%", "verdict")
	for _, spec := range workloads {
		if n := noisyA[spec.Name] + noisyB[spec.Name]; n > 0 {
			fmt.Fprintf(w, "%-16s %d parent and %d change runs left out: host steal above %.0f %%\n",
				spec.Name, noisyA[spec.Name], noisyB[spec.Name], 100*maxHostSteal)
		}
		for _, d := range endToEnd {
			xs, ys := a[spec.Name][d.Name], b[spec.Name][d.Name]
			if len(xs) < minQuietRuns || len(ys) < minQuietRuns {
				if len(xs)+len(ys) > 0 {
					fmt.Fprintf(w, "%-16s %-22s %d parent and %d change runs, need %d each  unresolved\n",
						spec.Name, d.Name, len(xs), len(ys), minQuietRuns)
				}
				continue
			}
			compared++
			_, ma, _ := quartiles(xs)
			_, mb, _ := quartiles(ys)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = ratio(ma-mb, ma)
			}
			spread := max(spreadOf(xs), spreadOf(ys))
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Watch:
				verdict = "watch"
			}
			fmt.Fprintf(w, "%-16s %-22s %12.4f %12.4f %8.2f %8.2f %7.1f  %s\n",
				spec.Name, d.Name, ma, mb, 100*worse, 100*spread, 100*d.Bound, verdict)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no (workload, metric) has %d quiet untraced runs in both files", minQuietRuns)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}

// verifyCounts pairs the records of two files by (workload, seed, trace)
// and requires the operation count and every count metric to be
// identical.
func verifyCounts(w io.Writer, aPath, bPath string) error {
	as, err := loadRecords(aPath)
	if err != nil {
		return err
	}
	bs, err := loadRecords(bPath)
	if err != nil {
		return err
	}
	type key struct {
		workload string
		seed     int64
		trace    int
	}
	index := make(map[key]runRecord)
	for _, r := range bs {
		index[key{r.Workload, r.Seed, r.Trace}] = r
	}
	pairs, diffs := 0, 0
	for _, ra := range as {
		rb, ok := index[key{ra.Workload, ra.Seed, ra.Trace}]
		if !ok {
			continue
		}
		pairs++
		if ra.Attempted != rb.Attempted {
			diffs++
			fmt.Fprintf(w, "%s seed=%d: attempted %d vs %d\n", ra.Workload, ra.Seed, ra.Attempted, rb.Attempted)
		}
		for _, d := range perLayer {
			va, okA := ra.Metrics[d.Name]
			vb, okB := rb.Metrics[d.Name]
			if d.Count && okA && okB && va.Value != vb.Value {
				diffs++
				fmt.Fprintf(w, "%s seed=%d: %s %v vs %v\n", ra.Workload, ra.Seed, d.Name, va.Value, vb.Value)
			}
		}
	}
	if pairs == 0 {
		return errors.New("no (workload, seed, trace) appears in both files")
	}
	if diffs > 0 {
		return fmt.Errorf("%d count values differ across %d paired runs", diffs, pairs)
	}
	fmt.Fprintf(w, "counts identical across %d paired runs\n", pairs)
	return nil
}

// writeSummary prints, per layer, the self time of its spans and the time
// requests were blocked on it, for the request path (what the caller
// waited for) and for the stage replay (where a query's time goes inside
// engine.Do) separately.
func writeSummary(w io.Writer, spans []span) {
	tree := buildTree(spans)
	type agg struct {
		spans          int
		self, blocking map[string]time.Duration
		count          map[string]int
		rootWall       time.Duration
	}
	sections := map[string]*agg{}
	section := func(root span) string {
		if root.Name == "replay.query" {
			return "stage replay (one-shot queries, outside the timed call)"
		}
		_, op, _ := strings.Cut(root.Name, ".")
		return "request path (" + op + ")"
	}
	rootOf := make([]int, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = i
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
	}
	for i, s := range spans {
		name := section(spans[rootOf[i]])
		a := sections[name]
		if a == nil {
			a = &agg{self: map[string]time.Duration{}, blocking: map[string]time.Duration{}, count: map[string]int{}}
			sections[name] = a
		}
		a.self[s.Layer] += tree.self(i)
		a.count[s.Layer]++
		if s.Parent < 0 {
			a.spans++
			a.rootWall += s.dur()
			tree.blocking(i, a.blocking)
		}
	}
	names := make([]string, 0, len(sections))
	for name := range sections {
		names = append(names, name)
	}
	sort.Strings(names)
	workload := ""
	if len(spans) > 0 {
		workload = spans[0].Workload
	}
	fmt.Fprintf(w, "trace summary: workload=%s spans=%d (self = span minus children, summed, so parallel shard spans can exceed 100%%; blocking = what the caller waited for)\n", workload, len(spans))
	for _, name := range names {
		a := sections[name]
		fmt.Fprintf(w, "%s: %d requests, %.1f ms each\n", name, a.spans, ms(a.rootWall)/float64(a.spans))
		fmt.Fprintf(w, "  %-12s %8s %12s %8s %12s %8s\n", "layer", "spans", "self_ms", "self%", "blocking_ms", "block%")
		layers := make([]string, 0, len(a.self))
		for l := range a.self {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return a.blocking[layers[i]] > a.blocking[layers[j]] })
		for _, l := range layers {
			fmt.Fprintf(w, "  %-12s %8d %12.1f %8.1f %12.1f %8.1f\n", l, a.count[l],
				ms(a.self[l]), 100*ratio(float64(a.self[l]), float64(a.rootWall)),
				ms(a.blocking[l]), 100*ratio(float64(a.blocking[l]), float64(a.rootWall)))
		}
	}
}
