package queries

import (
	"fmt"
	"math"

	"repro/internal/envelope"
	"repro/internal/numeric"
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

func (c *ThresholdConfig) fill(r float64) (updf.RadialPDF, int, int, error) {
	p := c.PDF
	if p == nil {
		p = updf.NewUniformDisk(r)
	}
	ts := c.TimeSamples
	if ts <= 0 {
		ts = 64
	}
	grid := c.Grid
	if grid <= 0 {
		grid = uncertain.DefaultGrid
	}
	conv, err := updf.ConvolvePair(p, p, 0)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("queries: convolving pdfs: %w", err)
	}
	return conv, ts, grid, nil
}

// ProbabilitySeries returns the sampled time series of P^NN for the object
// — the probability (per Eq. 5 on the convolved pdf, Section 3.1's
// reduction) that it is the query's nearest neighbor at each sampled
// instant.
func (p *Processor) ProbabilitySeries(oid int64, cfg ThresholdConfig) ([]float64, []float64, error) {
	if _, _, err := p.lookup(oid); err != nil {
		return nil, nil, err
	}
	conv, samples, grid, err := cfg.fill(p.R)
	if err != nil {
		return nil, nil, err
	}
	// Candidates: every UQ31 member (the rest contribute nothing).
	keptFns := p.keptFns()
	ts := numeric.Linspace(p.Tb, p.Te, samples)
	probs := make([]float64, len(ts))
	cands := make([]uncertain.Candidate, len(keptFns))
	for i, tm := range ts {
		for j, f := range keptFns {
			cands[j] = uncertain.Candidate{ID: f.ID, Dist: f.Value(tm)}
		}
		probs[i] = uncertain.NNProbabilities(conv, cands, grid)[oid]
	}
	return ts, probs, nil
}

// AboveThresholdIntervals returns the maximal time intervals during which
// P^NN_oid(t) >= pThresh, with boundaries interpolated linearly between
// samples.
func (p *Processor) AboveThresholdIntervals(oid int64, pThresh float64, cfg ThresholdConfig) ([]envelope.TimeInterval, error) {
	if pThresh < 0 || pThresh > 1 {
		return nil, ErrBadFrac
	}
	ts, probs, err := p.ProbabilitySeries(oid, cfg)
	if err != nil {
		return nil, err
	}
	var out []envelope.TimeInterval
	inRun := false
	var start float64
	cross := func(i int) float64 {
		// Linear interpolation of the crossing between samples i-1 and i.
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
	return out, nil
}

// ThresholdNN answers the continuous threshold query: does the object have
// probability >= pThresh of being the NN for at least fraction x of the
// window?
func (p *Processor) ThresholdNN(oid int64, pThresh, x float64, cfg ThresholdConfig) (bool, error) {
	if x < 0 || x > 1 {
		return false, ErrBadFrac
	}
	ivs, err := p.AboveThresholdIntervals(oid, pThresh, cfg)
	if err != nil {
		return false, err
	}
	return envelope.TotalLength(ivs) >= x*(p.Te-p.Tb)-envelope.TimeEps, nil
}

// ThresholdNNAll retrieves every object satisfying ThresholdNN. Pruned
// objects are rejected without probability evaluation (their P^NN is
// identically zero) — the Figure 13 saving in action.
func (p *Processor) ThresholdNNAll(pThresh, x float64, cfg ThresholdConfig) ([]int64, error) {
	if x < 0 || x > 1 || pThresh < 0 || pThresh > 1 {
		return nil, ErrBadFrac
	}
	var out []int64
	for _, oid := range p.UQ31() {
		ok, err := p.ThresholdNN(oid, pThresh, x, cfg)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, oid)
		}
	}
	return out, nil
}

// MaxProbability returns the peak of the object's P^NN series and the time
// at which it occurs (a descriptor-style summary usable for ordering
// threshold answers).
func (p *Processor) MaxProbability(oid int64, cfg ThresholdConfig) (tAt, prob float64, err error) {
	ts, probs, err := p.ProbabilitySeries(oid, cfg)
	if err != nil {
		return 0, 0, err
	}
	best := math.Inf(-1)
	for i, v := range probs {
		if v > best {
			best = v
			tAt = ts[i]
		}
	}
	return tAt, best, nil
}
