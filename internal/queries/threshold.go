package queries

import (
	"context"
	"fmt"

	"repro/internal/envelope"
	"repro/internal/numeric"
	"repro/internal/pool"
	"repro/internal/uncertain"
	"repro/internal/updf"
)

// ThresholdConfig tunes continuous threshold-NN evaluation (the paper's
// Section 7 future-work item: "retrieve the objects that have more than
// 65% probability of being a nearest neighbor within 50% of the time").
type ThresholdConfig struct {
	// PDF is the shared location pdf of the objects (nil = uniform disk of
	// the processor's radius).
	PDF updf.RadialPDF
	// TimeSamples is the resolution of the probability time series
	// (default 64). Probabilities vary smoothly between envelope critical
	// times, so a moderate grid suffices; boundaries are refined linearly.
	TimeSamples int
	// Grid is the Eq. 5 integration grid (default uncertain.DefaultGrid).
	Grid int
}

// Sampler evaluates P^NN over one processor's UQ31 members with one
// convolved pdf: the P^NN loop that ProbabilityTable runs over the window
// and the IPAC-NN tree runs over each node's interval.
type Sampler struct {
	conv updf.RadialPDF
	grid int
	kept []*envelope.DistanceFunc
	pool *pool.Pool // the processor's: the instants run side by side on it
}

// Sampler convolves cfg's pdf with itself (nil = uniform disk of the
// processor's radius) once, for every instant the sampler is asked about.
// cfg's TimeSamples plays no part: the caller picks the instants.
func (p *Processor) Sampler(cfg ThresholdConfig) (*Sampler, error) {
	pdf := cfg.PDF
	if pdf == nil {
		pdf = updf.NewUniformDisk(p.R)
	}
	conv, err := updf.ConvolvePair(pdf, pdf, 0)
	if err != nil {
		return nil, fmt.Errorf("queries: convolving pdfs: %w", err)
	}
	return &Sampler{conv: conv, grid: cfg.Grid, kept: p.KeptFuncs(), pool: p.pool}, nil
}

// At returns, for each instant of ts, P^NN of every UQ31 member at that
// instant, keyed by OID (an object absent from a map has P^NN 0 there).
// ctx is checked before every instant: one instant integrates Eq. 5 once
// per UQ31 member, which at a few thousand objects is the whole of a
// deadline. The instants are independent, so they run on the processor's
// pool, each with its own candidate list and writing only its own map.
func (s *Sampler) At(ctx context.Context, ts []float64) ([]map[int64]float64, error) {
	probs := make([]map[int64]float64, len(ts))
	err := s.pool.ForEachIndex(ctx, len(ts), func(i int) error {
		cands := make([]uncertain.Candidate, len(s.kept))
		for j, f := range s.kept {
			cands[j] = uncertain.Candidate{ID: f.ID, Dist: f.Value(ts[i])}
		}
		probs[i] = uncertain.NNProbabilities(s.conv, cands, s.grid)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return probs, nil
}

// ProbabilityTable is the sampled P^NN of every object over one
// processor's window — the probability (per Eq. 5 on the convolved pdf,
// Section 3.1's reduction) that it is the query's nearest neighbor at each
// sampled instant. One table integrates each instant once for all UQ31
// members; every threshold answer over the window is a read of its rows.
type ProbabilityTable struct {
	p     *Processor
	Times []float64           // the sampled instants, Tb to Te
	probs []map[int64]float64 // per instant, as Sampler.At returns it
}

// ProbabilityTable samples the window at cfg.TimeSamples instants
// (default 64), checking ctx before every instant (see Sampler.At).
func (p *Processor) ProbabilityTable(ctx context.Context, cfg ThresholdConfig) (*ProbabilityTable, error) {
	s, err := p.Sampler(cfg)
	if err != nil {
		return nil, err
	}
	samples := cfg.TimeSamples
	if samples <= 0 {
		samples = 64
	}
	ts := numeric.Linspace(p.Tb, p.Te, samples)
	probs, err := s.At(ctx, ts)
	if err != nil {
		return nil, err
	}
	return &ProbabilityTable{p: p, Times: ts, probs: probs}, nil
}

// Series returns the object's P^NN at each of Times. An object outside the
// UQ31 members (pruned or excluded) has the zero row; an unknown OID is an
// error.
func (t *ProbabilityTable) Series(oid int64) ([]float64, error) {
	if _, _, err := t.p.lookup(oid); err != nil {
		return nil, err
	}
	row := make([]float64, len(t.probs))
	for i, m := range t.probs {
		row[i] = m[oid]
	}
	return row, nil
}

// Above returns the maximal time intervals during which P^NN_oid(t) >=
// pThresh, with boundaries interpolated linearly between samples.
func (t *ProbabilityTable) Above(oid int64, pThresh float64) ([]envelope.TimeInterval, error) {
	if pThresh < 0 || pThresh > 1 {
		return nil, ErrBadFrac
	}
	probs, err := t.Series(oid)
	if err != nil {
		return nil, err
	}
	ts := t.Times
	// cross interpolates the crossing between samples i-1 and i linearly.
	cross := func(i int) float64 {
		p0, p1 := probs[i-1], probs[i]
		if p1 == p0 {
			return ts[i]
		}
		u := (pThresh - p0) / (p1 - p0)
		return ts[i-1] + u*(ts[i]-ts[i-1])
	}
	var out []envelope.TimeInterval
	inRun, start := false, ts[0]
	for i, v := range probs {
		switch above := v >= pThresh; {
		case above && !inRun:
			inRun = true
			if i > 0 {
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
	return out, nil
}

// ThresholdNN answers the continuous threshold query for one object (the
// paper's Section 7): is its P^NN >= pThresh for at least fraction x of
// the window?
func (t *ProbabilityTable) ThresholdNN(oid int64, pThresh, x float64) (bool, error) {
	if x < 0 || x > 1 {
		return false, ErrBadFrac
	}
	ivs, err := t.Above(oid, pThresh)
	return err == nil && envelope.TotalLength(ivs) >= x*(t.p.Te-t.p.Tb)-envelope.TimeEps, err
}

// ThresholdNNAll returns every object ThresholdNN accepts, reading only the
// UQ31 members: a pruned object's P^NN is identically zero (Figure 13).
func (t *ProbabilityTable) ThresholdNNAll(pThresh, x float64) ([]int64, error) {
	if x < 0 || x > 1 || pThresh < 0 || pThresh > 1 {
		return nil, ErrBadFrac
	}
	var out []int64
	for _, oid := range t.p.UQ31() {
		if ok, err := t.ThresholdNN(oid, pThresh, x); err != nil {
			return nil, err
		} else if ok {
			out = append(out, oid)
		}
	}
	return out, nil
}
