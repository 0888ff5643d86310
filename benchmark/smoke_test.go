package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables in spec.go: the
// same workloads, metrics, units, directions and bounds, in the same
// order, under names the contract accepts.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds = %d, the scripts are sized for %d", f.RunSeconds, referenceSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go has %q", i, w.Name, workloads[i].Name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer", len(f.EndToEnd), len(endToEnd), len(f.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go has %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bad name, unit, bound or duplicate", m.Name)
		}
		seen[m.Name] = true
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go has %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer metric %q: bad name, unit or duplicate", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs all four workloads at toy scale, untraced and traced,
// and checks the report: every metric of the mode printed exactly once,
// finite, with its unit; zero failed operations; the oracle gate green —
// on a second seed as well unless -short.
func TestSmoke(t *testing.T) {
	seeds := []int64{2009, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, spec := range workloads {
		for _, seed := range seeds {
			for trace, defs := range [][]metricDef{endToEnd, perLayer} {
				if seed != seeds[0] && trace == 1 {
					continue
				}
				var out bytes.Buffer
				rec, err := run(&out, options{
					workload: spec.Name, seed: seed, seconds: referenceSeconds, trace: trace,
					workDir: t.TempDir(), toyN: 300, toyRounds: 8, summary: trace == 1,
				})
				if err != nil {
					t.Fatalf("%s seed=%d trace=%d: %v\n%s", spec.Name, seed, trace, err, out.String())
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Errorf("%s seed=%d trace=%d: correct=%v failed=%d attempted=%d\n%s",
						spec.Name, seed, trace, rec.Correct, rec.Failed, rec.Attempted, out.String())
				}
				if len(rec.Metrics) != len(defs) {
					t.Errorf("%s trace=%d: %d metrics reported, want %d", spec.Name, trace, len(rec.Metrics), len(defs))
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				for _, d := range defs {
					v, ok := rec.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s trace=%d: metric %s = %+v (reported %v)", spec.Name, trace, d.Name, v, ok)
					}
					if trace == 0 && v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", spec.Name, d.Name, v.Value)
					}
					printed := 0
					for _, line := range lines {
						if f := strings.Fields(line); len(f) == 3 && f[0] == d.Name && f[2] == d.Unit {
							printed++
						}
					}
					if printed != 1 {
						t.Errorf("%s trace=%d: metric %s printed %d times", spec.Name, trace, d.Name, printed)
					}
				}
				var last struct {
					Correct   *bool                  `json:"correct"`
					Attempted *int                   `json:"attempted"`
					Failed    *int                   `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&last); err != nil || last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(defs) {
					t.Errorf("%s trace=%d: last line is not the result object: %v\n%s", spec.Name, trace, err, lines[len(lines)-1])
				}
			}
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCompare pins what -compare refuses to call ok: a regression, sets
// with nothing in common, runs of different lengths, and sets whose quiet
// runs are too few to judge.
func TestCompare(t *testing.T) {
	set := func(workload string, seconds int, steal, p50 float64) []runRecord {
		recs := make([]runRecord, minQuietRuns)
		for i := range recs {
			recs[i] = runRecord{
				Workload: workload, Seed: int64(i), Seconds: seconds, HostSteal: steal,
				Metrics: map[string]metricValue{"query_p50_ms": {Value: p50 + float64(i)/100, Unit: "ms"}},
			}
		}
		return recs
	}
	base := set("adhoc_cold", 20, 0, 10)
	for _, tc := range []struct {
		name    string
		change  []runRecord
		wantErr bool
		want    string
	}{
		{"same", set("adhoc_cold", 20, 0, 10.2), false, "ok"},
		{"a little slower", set("adhoc_cold", 20, 0, 11.5), false, "watch"},
		{"slower", set("adhoc_cold", 20, 0, 13), true, "regressed"},
		{"other workload", set("variants_hot", 20, 0, 10), true, "unresolved"},
		{"other length", set("adhoc_cold", 10, 0, 10), true, ""},
		{"noisy host", set("adhoc_cold", 20, 2*maxHostSteal, 10), true, "left out"},
	} {
		dir := t.TempDir()
		a, b := dir+"/a.json", dir+"/b.json"
		if err := errors.Join(appendRecords(a, base), appendRecords(b, tc.change)); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := compareFiles(&out, a, b)
		if (err != nil) != tc.wantErr || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: err = %v, output:\n%s", tc.name, err, out.String())
		}
	}
}
