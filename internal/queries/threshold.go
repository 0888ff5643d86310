package queries

import (
	"context"
	"fmt"
	"math"
	"time"

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

// CtxErr reports whether the context is done, checking the wall clock
// against the deadline as well as Err(): a short deadline on a busy
// single-core host can expire before the runtime schedules the timer
// goroutine that cancels the context, and a checkpoint must not sail past
// it just because the timer has not fired yet.
func CtxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// ProbabilitySeries returns the sampled time series of P^NN for the object
// — the probability (per Eq. 5 on the convolved pdf, Section 3.1's
// reduction) that it is the query's nearest neighbor at each sampled
// instant, checking ctx before every sample (see Sampler.At).
func (p *Processor) ProbabilitySeries(ctx context.Context, oid int64, cfg ThresholdConfig) ([]float64, []float64, error) {
	s, err := p.Sampler(cfg)
	if err != nil {
		return nil, nil, err
	}
	samples := cfg.TimeSamples
	if samples <= 0 {
		samples = 64
	}
	ts := numeric.Linspace(p.Tb, p.Te, samples)
	probs, err := s.At(ctx, oid, ts)
	if err != nil {
		return nil, nil, err
	}
	return ts, probs, nil
}

// Sampler evaluates P^NN over one processor's UQ31 members with one
// convolved pdf: the P^NN loop that ProbabilitySeries runs over the
// window and the IPAC-NN tree runs over each node's interval.
type Sampler struct {
	p    *Processor
	conv updf.RadialPDF
	grid int
	kept []*envelope.DistanceFunc
}

// Sampler convolves cfg's pdf with itself (nil = uniform disk of the
// processor's radius) once, for every series the sampler takes. cfg's
// TimeSamples plays no part: the caller picks the instants.
func (p *Processor) Sampler(cfg ThresholdConfig) (*Sampler, error) {
	pdf := cfg.PDF
	if pdf == nil {
		pdf = updf.NewUniformDisk(p.R)
	}
	grid := cfg.Grid
	if grid <= 0 {
		grid = uncertain.DefaultGrid
	}
	conv, err := updf.ConvolvePair(pdf, pdf, 0)
	if err != nil {
		return nil, fmt.Errorf("queries: convolving pdfs: %w", err)
	}
	// Candidates: every UQ31 member (the rest contribute nothing).
	return &Sampler{p: p, conv: conv, grid: grid, kept: p.KeptFuncs()}, nil
}

// At returns P^NN of the object at each instant of ts. ctx is checked
// before every instant: one instant integrates Eq. 5 once per UQ31 member,
// which at a few thousand objects is the whole of a deadline.
func (s *Sampler) At(ctx context.Context, oid int64, ts []float64) ([]float64, error) {
	if _, _, err := s.p.lookup(oid); err != nil {
		return nil, err
	}
	probs := make([]float64, len(ts))
	cands := make([]uncertain.Candidate, len(s.kept))
	for i, tm := range ts {
		if err := CtxErr(ctx); err != nil {
			return nil, err
		}
		for j, f := range s.kept {
			cands[j] = uncertain.Candidate{ID: f.ID, Dist: f.Value(tm)}
		}
		probs[i] = uncertain.NNProbabilities(s.conv, cands, s.grid)[oid]
	}
	return probs, nil
}

// AboveThresholdIntervals returns the maximal time intervals during which
// P^NN_oid(t) >= pThresh, with boundaries interpolated linearly between
// samples.
func (p *Processor) AboveThresholdIntervals(ctx context.Context, oid int64, pThresh float64, cfg ThresholdConfig) ([]envelope.TimeInterval, error) {
	if pThresh < 0 || pThresh > 1 {
		return nil, ErrBadFrac
	}
	ts, probs, err := p.ProbabilitySeries(ctx, oid, cfg)
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
func (p *Processor) ThresholdNN(ctx context.Context, oid int64, pThresh, x float64, cfg ThresholdConfig) (bool, error) {
	if x < 0 || x > 1 {
		return false, ErrBadFrac
	}
	ivs, err := p.AboveThresholdIntervals(ctx, oid, pThresh, cfg)
	if err != nil {
		return false, err
	}
	return envelope.TotalLength(ivs) >= x*(p.Te-p.Tb)-envelope.TimeEps, nil
}

// ThresholdNNAll retrieves every object satisfying ThresholdNN. Pruned
// objects are rejected without probability evaluation (their P^NN is
// identically zero) — the Figure 13 saving in action.
func (p *Processor) ThresholdNNAll(ctx context.Context, pThresh, x float64, cfg ThresholdConfig) ([]int64, error) {
	if x < 0 || x > 1 || pThresh < 0 || pThresh > 1 {
		return nil, ErrBadFrac
	}
	var out []int64
	for _, oid := range p.UQ31() {
		ok, err := p.ThresholdNN(ctx, oid, pThresh, x, cfg)
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
func (p *Processor) MaxProbability(ctx context.Context, oid int64, cfg ThresholdConfig) (tAt, prob float64, err error) {
	ts, probs, err := p.ProbabilitySeries(ctx, oid, cfg)
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
