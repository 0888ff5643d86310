// Package bench is the experiment harness regenerating the paper's
// evaluation (Section 5): Figure 11 (lower-envelope construction, naive vs
// divide and conquer), Figure 12 (answering the existential UQ11 and
// quantitative UQ13 queries, naive vs envelope-based), and Figure 13
// (pruning power of the lower envelope as a function of the uncertainty
// radius). Each experiment returns typed rows so the figures CLI and the
// testing.B benchmarks share one implementation.
//
// The workload is the paper's: random waypoint over 40 × 40 mi², speeds
// uniform in [15, 60] mph, 60 minutes, synchronous velocity changes.
// Absolute times differ from the paper's 2009 C++/Pentium-IV setup, but
// the comparisons (who wins, growth with N, crossover behaviour) are the
// reproduction targets.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/envelope"
	"repro/internal/queries"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// Fig11Row is one point of Figure 11.
type Fig11Row struct {
	N       int
	DCTime  time.Duration // divide-and-conquer construction (Algorithm 1)
	NaiveT  time.Duration // naive O(N² log N) construction; 0 if skipped
	Skipped bool          // naive skipped because N > naiveCap
}

// buildFuncs generates the workload and difference distance functions for
// one experiment instance.
func buildFuncs(n int, seed int64) ([]*trajectory.Trajectory, []*envelope.DistanceFunc, error) {
	trs, err := workload.Generate(workload.DefaultConfig(seed), n)
	if err != nil {
		return nil, nil, err
	}
	fns, err := envelope.BuildDistanceFuncs(trs, trs[0], 0, 60)
	if err != nil {
		return nil, nil, err
	}
	return trs, fns, nil
}

// Fig11 measures lower-envelope construction time for each population size.
// The naive baseline is skipped for N > naiveCap (its O(N²) intersection
// set exhausts memory/time at the paper's largest sizes on small machines;
// the growth trend is established by the measured points).
func Fig11(ns []int, naiveCap int, seed int64) ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, n := range ns {
		_, fns, err := buildFuncs(n, seed)
		if err != nil {
			return nil, err
		}
		row := Fig11Row{N: n}
		start := time.Now()
		if _, err := envelope.LowerEnvelope(fns, 0, 60); err != nil {
			return nil, err
		}
		row.DCTime = time.Since(start)
		if naiveCap <= 0 || n <= naiveCap {
			start = time.Now()
			if _, err := envelope.NaiveLowerEnvelope(fns, 0, 60); err != nil {
				return nil, err
			}
			row.NaiveT = time.Since(start)
		} else {
			row.Skipped = true
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig12Row is one point of Figure 12: average per-query times for the
// existential (UQ11) and quantitative (UQ13, X = 50%) queries, with the
// envelope-based processor (preprocessing excluded, as in the paper) and
// the naive processor (full pairwise sweep per query).
type Fig12Row struct {
	N              int
	OurExistential time.Duration
	OurQuant       time.Duration
	NaiveExist     time.Duration
	NaiveQuant     time.Duration
	Skipped        bool // naive skipped because N > naiveCap
}

// Fig12 averages `queriesPerN` random target selections per population
// size (the paper averages 100).
func Fig12(ns []int, naiveCap, queriesPerN int, seed int64) ([]Fig12Row, error) {
	if queriesPerN <= 0 {
		queriesPerN = 100
	}
	var rows []Fig12Row
	for _, n := range ns {
		trs, err := workload.Generate(workload.DefaultConfig(seed), n)
		if err != nil {
			return nil, err
		}
		q := trs[0]
		const r = 0.5
		proc, err := queries.NewProcessor(trs, q, 0, 60, r)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + int64(n)))
		targets := make([]int64, queriesPerN)
		for i := range targets {
			targets[i] = trs[1+rng.Intn(n-1)].OID
		}
		row := Fig12Row{N: n}

		start := time.Now()
		for _, oid := range targets {
			if _, err := proc.UQ11(oid); err != nil {
				return nil, err
			}
		}
		row.OurExistential = time.Since(start) / time.Duration(queriesPerN)

		start = time.Now()
		for _, oid := range targets {
			if _, err := proc.UQ13(oid, 0.5); err != nil {
				return nil, err
			}
		}
		row.OurQuant = time.Since(start) / time.Duration(queriesPerN)

		if naiveCap <= 0 || n <= naiveCap {
			np, err := queries.NewNaiveProcessor(trs, q, 0, 60, r)
			if err != nil {
				return nil, err
			}
			// The naive sweep is orders of magnitude slower; a few
			// repetitions suffice for a stable average.
			reps := queriesPerN
			if reps > 5 {
				reps = 5
			}
			start = time.Now()
			for i := 0; i < reps; i++ {
				if _, err := np.UQ11(targets[i]); err != nil {
					return nil, err
				}
			}
			row.NaiveExist = time.Since(start) / time.Duration(reps)
			start = time.Now()
			for i := 0; i < reps; i++ {
				if _, err := np.UQ13(targets[i], 0.5); err != nil {
					return nil, err
				}
			}
			row.NaiveQuant = time.Since(start) / time.Duration(reps)
		} else {
			row.Skipped = true
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig13Row is one point of Figure 13: the fraction of objects that still
// require probability integration (i.e. survive the 4r pruning) for one
// uncertainty radius and population size.
type Fig13Row struct {
	R            float64
	N            int
	FracRequired float64 // kept / (N-1)
}

// Fig13 sweeps the uncertainty radius for each population size.
func Fig13(rs []float64, ns []int, seed int64) ([]Fig13Row, error) {
	var rows []Fig13Row
	for _, n := range ns {
		_, fns, err := buildFuncs(n, seed)
		if err != nil {
			return nil, err
		}
		env, err := envelope.LowerEnvelope(fns, 0, 60)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			kept, _ := envelope.Prune(fns, env, 4*r)
			rows = append(rows, Fig13Row{
				R: r, N: n,
				FracRequired: float64(len(kept)) / float64(len(fns)),
			})
		}
	}
	return rows, nil
}

// FormatFig11 renders rows as an aligned text table.
func FormatFig11(rows []Fig11Row) string {
	s := fmt.Sprintf("%-8s %-16s %-16s %s\n", "N", "divide&conquer", "naive", "speedup")
	for _, r := range rows {
		naive := "skipped"
		speedup := "-"
		if !r.Skipped {
			naive = r.NaiveT.String()
			if r.DCTime > 0 {
				speedup = fmt.Sprintf("%.1fx", float64(r.NaiveT)/float64(r.DCTime))
			}
		}
		s += fmt.Sprintf("%-8d %-16s %-16s %s\n", r.N, r.DCTime, naive, speedup)
	}
	return s
}

// FormatFig12 renders rows as an aligned text table.
func FormatFig12(rows []Fig12Row) string {
	s := fmt.Sprintf("%-8s %-14s %-14s %-14s %-14s\n",
		"N", "our-exist", "our-quant", "naive-exist", "naive-quant")
	for _, r := range rows {
		ne, nq := "skipped", "skipped"
		if !r.Skipped {
			ne, nq = r.NaiveExist.String(), r.NaiveQuant.String()
		}
		s += fmt.Sprintf("%-8d %-14s %-14s %-14s %-14s\n",
			r.N, r.OurExistential, r.OurQuant, ne, nq)
	}
	return s
}

// FormatFig13 renders rows as an aligned text table.
func FormatFig13(rows []Fig13Row) string {
	s := fmt.Sprintf("%-10s %-8s %s\n", "radius", "N", "frac-integration-required")
	for _, r := range rows {
		s += fmt.Sprintf("%-10.2f %-8d %.4f\n", r.R, r.N, r.FracRequired)
	}
	return s
}

// CSVFig11 renders rows as CSV.
func CSVFig11(rows []Fig11Row) string {
	s := "n,dc_ns,naive_ns,skipped\n"
	for _, r := range rows {
		s += fmt.Sprintf("%d,%d,%d,%v\n", r.N, r.DCTime.Nanoseconds(), r.NaiveT.Nanoseconds(), r.Skipped)
	}
	return s
}

// CSVFig12 renders rows as CSV.
func CSVFig12(rows []Fig12Row) string {
	s := "n,our_exist_ns,our_quant_ns,naive_exist_ns,naive_quant_ns,skipped\n"
	for _, r := range rows {
		s += fmt.Sprintf("%d,%d,%d,%d,%d,%v\n", r.N,
			r.OurExistential.Nanoseconds(), r.OurQuant.Nanoseconds(),
			r.NaiveExist.Nanoseconds(), r.NaiveQuant.Nanoseconds(), r.Skipped)
	}
	return s
}

// CSVFig13 renders rows as CSV.
func CSVFig13(rows []Fig13Row) string {
	s := "radius,n,frac_required\n"
	for _, r := range rows {
		s += fmt.Sprintf("%g,%d,%.6f\n", r.R, r.N, r.FracRequired)
	}
	return s
}

// E4Row is one point of extension experiment E4: pruning power under
// uniform vs clustered (hotspot) populations.
type E4Row struct {
	Workload     string // "uniform" or "clustered"
	R            float64
	N            int
	FracRequired float64
}

// E4ClusteredPruning compares the integration fraction between the paper's
// uniform random-waypoint population and a hotspot population (clusters
// Gaussian hotspots with the given spread) at the same sizes and radii.
func E4ClusteredPruning(rs []float64, n, clusters int, spread float64, seed int64) ([]E4Row, error) {
	var rows []E4Row
	for _, clustered := range []bool{false, true} {
		var (
			trs []*trajectory.Trajectory
			err error
		)
		name := "uniform"
		if clustered {
			name = "clustered"
			trs, err = workload.GenerateClustered(workload.ClusterConfig{
				Base: workload.DefaultConfig(seed), Clusters: clusters, Spread: spread,
			}, n)
		} else {
			trs, err = workload.Generate(workload.DefaultConfig(seed), n)
		}
		if err != nil {
			return nil, err
		}
		fns, err := envelope.BuildDistanceFuncs(trs, trs[0], 0, 60)
		if err != nil {
			return nil, err
		}
		env, err := envelope.LowerEnvelope(fns, 0, 60)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			kept, _ := envelope.Prune(fns, env, 4*r)
			rows = append(rows, E4Row{
				Workload: name, R: r, N: n,
				FracRequired: float64(len(kept)) / float64(len(fns)),
			})
		}
	}
	return rows, nil
}

// FormatE4 renders rows as an aligned text table.
func FormatE4(rows []E4Row) string {
	s := fmt.Sprintf("%-11s %-8s %-8s %s\n", "workload", "radius", "N", "frac-integration-required")
	for _, r := range rows {
		s += fmt.Sprintf("%-11s %-8.2f %-8d %.4f\n", r.Workload, r.R, r.N, r.FracRequired)
	}
	return s
}

// CSVE4 renders rows as CSV.
func CSVE4(rows []E4Row) string {
	s := "workload,radius,n,frac_required\n"
	for _, r := range rows {
		s += fmt.Sprintf("%s,%g,%d,%.6f\n", r.Workload, r.R, r.N, r.FracRequired)
	}
	return s
}
