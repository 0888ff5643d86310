package queries

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/envelope"
	"repro/internal/mod"
	"repro/internal/numeric"
	"repro/internal/pool"
	"repro/internal/uncertain"
	"repro/internal/workload"
)

// refSeries is the per-object P^NN loop the table replaced: a sampler's
// members, one Eq. 5 integration per instant, and the object's entry of
// each answer kept — the rest thrown away.
func refSeries(ctx context.Context, p *Processor, oid int64, cfg ThresholdConfig) ([]float64, []float64, error) {
	s, err := p.Sampler(cfg)
	if err != nil {
		return nil, nil, err
	}
	samples := cfg.TimeSamples
	if samples <= 0 {
		samples = 64
	}
	ts := numeric.Linspace(p.Tb, p.Te, samples)
	if _, _, err := p.lookup(oid); err != nil {
		return nil, nil, err
	}
	probs := make([]float64, len(ts))
	cands := make([]uncertain.Candidate, len(s.kept))
	for i, tm := range ts {
		if err := pool.CtxErr(ctx); err != nil {
			return nil, nil, err
		}
		for j, f := range s.kept {
			cands[j] = uncertain.Candidate{ID: f.ID, Dist: f.Value(tm)}
		}
		probs[i] = uncertain.NNProbabilities(s.conv, cands, s.grid)[oid]
	}
	return ts, probs, nil
}

// refAbove is the per-object crossing loop over one series.
func refAbove(ts, probs []float64, pThresh float64) []envelope.TimeInterval {
	var out []envelope.TimeInterval
	inRun := false
	var start float64
	cross := func(i int) float64 {
		p0, p1 := probs[i-1], probs[i]
		if p1 == p0 {
			return ts[i]
		}
		u := (pThresh - p0) / (p1 - p0)
		return ts[i-1] + u*(ts[i]-ts[i-1])
	}
	for i := range ts {
		above := probs[i] >= pThresh
		switch {
		case above && !inRun:
			inRun = true
			if i == 0 {
				start = ts[0]
			} else {
				start = cross(i)
			}
		case !above && inRun:
			inRun = false
			out = append(out, envelope.TimeInterval{T0: start, T1: cross(i)})
		}
	}
	if inRun {
		out = append(out, envelope.TimeInterval{T0: start, T1: ts[len(ts)-1]})
	}
	return out
}

// sameBits reports whether two float series are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameIntervals reports whether two interval lists are equal bit for bit.
func sameIntervals(a, b []envelope.TimeInterval) bool {
	return slices.EqualFunc(a, b, func(x, y envelope.TimeInterval) bool {
		return math.Float64bits(x.T0) == math.Float64bits(y.T0) && math.Float64bits(x.T1) == math.Float64bits(y.T1)
	})
}

// prunedFleet returns a processor over n objects of the seed's workload
// with the survivors an index pre-pass would hand over (the zone members
// and a margin of near misses), an OID the pre-pass excluded and a
// survivor that is no UQ31 member. It is built on a pool of one worker per
// CPU, as an engine's is, so its table integrates its instants side by
// side.
func prunedFleet(t testing.TB, n int, seed int64, tb, te, r float64) (p *Processor, excluded, pruned int64) {
	t.Helper()
	trs, err := workload.Generate(workload.DefaultConfig(seed), n)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewProcessor(trs, trs[0], tb, te, r)
	if err != nil {
		t.Fatal(err)
	}
	var survivors []int64
	for _, f := range full.table {
		if envelope.MinGap(f, full.env1) <= 4*r+3 {
			survivors = append(survivors, f.ID)
		} else if excluded == 0 {
			excluded = f.ID
		}
	}
	if p, err = NewProcessorOn(context.Background(), pool.New(0), trs, trs[0], tb, te, r, survivors, nil); err != nil {
		t.Fatal(err)
	}
	members := p.UQ31()
	for _, id := range survivors {
		if _, ok := slices.BinarySearch(members, id); !ok {
			pruned = id
			break
		}
	}
	if excluded == 0 || pruned == 0 {
		t.Fatalf("N = %d seed %d: no excluded (%d) or no pruned (%d) object to test", n, seed, excluded, pruned)
	}
	return p, excluded, pruned
}

// TestProbabilityTableMatchesPerObjectSeries: one table's rows and
// threshold intervals are the per-object loop's, bit for bit — for every
// UQ31 member, for a survivor outside them and for an object the pre-pass
// excluded — on a uniform and a bounded-Gaussian store, and the table's
// whole-MOD answer is the per-object loop's.
func TestProbabilityTableMatchesPerObjectSeries(t *testing.T) {
	const tb, te, r = 17.0, 27.0, 0.5
	specs := map[string]mod.PDFSpec{
		"uniform":          {Kind: mod.PDFUniform, R: r},
		"bounded-gaussian": {Kind: mod.PDFBoundedGaussian, R: r, Sigma: 0.1},
	}
	ctx := context.Background()
	for _, n := range []int{60, 600} {
		for _, seed := range []int64{7, 2025} {
			p, excluded, pruned := prunedFleet(t, n, seed, tb, te, r)
			for name, spec := range specs {
				t.Run(fmt.Sprintf("N=%d/seed=%d/%s", n, seed, name), func(t *testing.T) {
					store, err := mod.NewStore(spec)
					if err != nil {
						t.Fatal(err)
					}
					cfg := ThresholdConfig{PDF: store.PDF(), TimeSamples: 9, Grid: 128}
					tab, err := p.ProbabilityTable(ctx, cfg)
					if err != nil {
						t.Fatal(err)
					}
					members := p.UQ31()
					ref := make(map[int64][]float64)
					for _, oid := range append(slices.Clone(members), pruned, excluded) {
						ts, want, err := refSeries(ctx, p, oid, cfg)
						if err != nil {
							t.Fatal(err)
						}
						ref[oid] = want
						got, err := tab.Series(oid)
						if err != nil {
							t.Fatal(err)
						}
						if !sameBits(tab.Times, ts) || !sameBits(got, want) {
							t.Fatalf("object %d: table row %v, per-object series %v", oid, got, want)
						}
						for _, pThresh := range []float64{0.1, 0.4, 0.9} {
							ivs, err := tab.Above(oid, pThresh)
							if err != nil {
								t.Fatal(err)
							}
							if wantIvs := refAbove(ts, want, pThresh); !sameIntervals(ivs, wantIvs) {
								t.Fatalf("object %d above %g: table %v, per-object %v", oid, pThresh, ivs, wantIvs)
							}
						}
					}
					for _, pThresh := range []float64{0.1, 0.4, 0.9} {
						var want []int64
						for _, oid := range members {
							if envelope.TotalLength(refAbove(tab.Times, ref[oid], pThresh)) >= 0.3*(te-tb)-envelope.TimeEps {
								want = append(want, oid)
							}
						}
						got, err := tab.ThresholdNNAll(pThresh, 0.3)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("whole MOD above %g for 30%%: table %v, per-object %v", pThresh, got, want)
						}
					}
				})
			}
		}
	}
}
