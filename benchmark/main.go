// Command benchmark is the repository's regression benchmark: four
// fixed-script workloads, nine end-to-end metrics, and an outside-in layer
// trace. See README.md in this directory; BENCHMARK.json at the repository
// root names the command and the metrics.
//
//	benchmark -workload adhoc_cold -seed 2009 -seconds 20 -trace 0
//
// prints every end-to-end metric by name with its unit and, as the last
// line of standard output, one JSON object {correct, attempted, failed,
// metrics}. With -trace 1 the same script is replayed with spans recorded
// around the layers' public entry points and the per-layer metrics are
// printed instead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run's report. The last line of standard output carries
// only correct/attempted/failed/metrics; -out files keep the whole record.
type runRecord struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    int                    `json:"seconds"`
	Trace      int                    `json:"trace"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	HostSteal  float64                `json:"host_steal"` // share of host CPU the hypervisor took during the measured phase
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	workDir  string
	traceOut string
	summary  bool
	// Toy scale for smoke_test.go: fleet size, and measured rounds with the
	// warm-up cut to 2. No flag reaches them, so every record a command
	// line writes is at full scale.
	toyN, toyRounds int
}

// setupRuns is how often an untraced run sets up: setup_s is the median,
// so that one slow file system call does not decide it.
const setupRuns = 3

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: adhoc_cold, variants_hot, standing_churn, sharded_wire (or all, with -repeat)")
	flag.Int64Var(&o.seed, "seed", 2009, "seed every generated input derives from")
	flag.IntVar(&o.seconds, "seconds", referenceSeconds, "length of the measured phase the script is sized for")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for journals and other run files (created, cleaned on exit)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this JSON file")
	flag.BoolVar(&o.summary, "trace-summary", false, "print self time and blocking-path share per layer after a traced run")
	out := flag.String("out", "", "append this run's record (or every -repeat run's) to a JSON file")
	repeat := flag.Int("repeat", 0, "run the workload K times in fresh processes on seeds seed..seed+K-1 and print medians, quartiles and the largest deviation")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare parent.json change.json")
	verify := flag.Bool("verify-counts", false, "check two -out files of same-seed runs for identical count metrics: benchmark -verify-counts a.json b.json")
	flag.Parse()

	var err error
	switch {
	case *compare || *verify:
		if flag.NArg() != 2 {
			err = errors.New("need two record files")
		} else if *compare {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		} else {
			err = verifyCounts(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *repeat > 0:
		err = repeatRuns(os.Stdout, o, *repeat, *out)
	default:
		var rec *runRecord
		rec, err = run(os.Stdout, o)
		if err == nil && *out != "" {
			err = appendRecords(*out, []runRecord{*rec})
		}
		if err == nil && !rec.Correct {
			err = fmt.Errorf("%d of %d operations failed", rec.Failed, rec.Attempted)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run executes one workload once and prints its report to w.
func run(w io.Writer, o options) (*runRecord, error) {
	spec, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("bad -seconds %d", o.seconds)
	}
	spec.Rounds = scaledRounds(spec, o.seconds)
	if o.toyN > 0 {
		spec.N, spec.Rounds, spec.Warmup = o.toyN, o.toyRounds, 2
	}
	// Two cores are what the engine fans a query across on the reference
	// box; pinning keeps a bigger machine from changing the shape.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)

	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	traced := o.trace != 0
	// The traced run plays the first two fifths of the script twice, through
	// an untraced and then a traced instance: with the stage replay and the
	// reference hub beside the second, that keeps its wall time at the
	// untraced run's.
	play := spec.Rounds
	if traced {
		play = (2*spec.Rounds + 4) / 5
	}
	sc, err := prepare(spec, o.seed, play)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	var setupS []float64
	ready := func(tr *tracer) (*instance, error) {
		runtime.GC()
		t0 := time.Now()
		in, err := setup(sc, workDir, procs, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return in, nil
	}
	var tr *tracer
	var untraced *phaseStats
	if traced {
		base, err := ready(nil)
		if err != nil {
			return nil, err
		}
		untraced = measure(base, sc)
		base.close()
		tr = newTracer(spec.Name)
	} else {
		for i := 1; i < setupRuns; i++ {
			spare, err := ready(nil)
			if err != nil {
				return nil, err
			}
			spare.close()
		}
	}
	in, err := ready(tr)
	if err != nil {
		return nil, err
	}
	ps := measure(in, sc)
	var values map[string]float64
	defs := endToEnd
	if traced {
		values, defs = layerMetrics(in, ps, untraced), perLayer
		// The untraced pass answers for its operations too.
		for _, f := range untraced.failures {
			ps.fail("untraced pass: %s", f)
		}
		if untraced.oracleChecked != sc.OraclePoints {
			ps.fail("untraced pass: %d of %d oracle points checked", untraced.oracleChecked, sc.OraclePoints)
		}
	} else {
		values = endToEndMetrics(ps, setupS)
	}
	in.close()

	rec := &runRecord{
		Workload: spec.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, GOMAXPROCS: procs, HostSteal: ps.stolen,
		Correct:   ps.failed == 0 && ps.oracleChecked == sc.OraclePoints,
		Attempted: ps.attempted, Failed: ps.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	fmt.Fprintf(w, "workload=%s seed=%d trace=%d gomaxprocs=%d n=%d rounds=%d warmup=%d\n",
		spec.Name, o.seed, o.trace, procs, spec.N, len(sc.Measured), len(sc.Warmup))
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "samples: %d timed queries, %d timed batches (%d updates), set-up runs %.3v s\n",
		len(ps.qLat), len(ps.bLat), ps.updates, setupS)
	fmt.Fprintf(w, "operations: attempted=%d failed=%d oracle=%d/%d measured=%.1fs cpu=%.1fs host-steal=%.1f%%\n",
		ps.attempted, ps.failed, ps.oracleChecked, sc.OraclePoints, ps.wall.Seconds(), ps.cpu.Seconds(), 100*ps.stolen)
	for _, f := range ps.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	if traced {
		spans := tr.snapshot()
		if o.summary {
			writeSummary(w, spans)
		}
		if o.traceOut != "" {
			if err := writeJSON(o.traceOut, spans); err != nil {
				return nil, err
			}
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", last)
	return rec, nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
