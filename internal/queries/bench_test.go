package queries

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/envelope"
	"repro/internal/workload"
)

// BenchmarkProcessorVariants is the variants_hot burst at the processor:
// the benchmark's sixteen burstHot requests — ten window-long retrievals,
// two instant retrievals, three single-object predicates — against one
// pruned processor over N = 3 000 objects. "first" times request 1 (UQ31)
// on a fresh zone table, "rest" requests 2..16 on the table request 1 left
// behind. scans/op is the number of zone rows filled inside the timed
// section, each by one BelowIntervals call: the whole scan set in "first",
// none in "rest" — every later variant reduces rows that are already there.
func BenchmarkProcessorVariants(b *testing.B) {
	const n, tb, te, r = 3000, 20.0, 30.0, 0.5
	trs, err := workload.Generate(workload.DefaultConfig(2009), n)
	if err != nil {
		b.Fatal(err)
	}
	q, target := trs[0], trs[1].OID
	full, err := NewProcessor(trs, q, tb, te, r)
	if err != nil {
		b.Fatal(err)
	}
	// The survivors an index pre-pass would hand over: the zone members and
	// a margin of near misses.
	var survivors []int64
	for _, f := range full.table {
		if envelope.MinGap(f, full.env1) <= 4*r+1 {
			survivors = append(survivors, f.ID)
		}
	}
	at := func(f float64) float64 { return tb + f*(te-tb) }
	first := func(p *Processor) { sink = p.UQ31() }
	rest := func(p *Processor) {
		sink = p.UQ32()
		for _, x := range []float64{0.2, 0.5, 0.8} {
			sink, _ = p.UQ43(1, x)
		}
		sink, _ = p.PossibleRankKAt(at(0.25), 1)
		sink = p.UQ31()
		sink = p.UQ32()
		for _, x := range []float64{0.1, 0.35, 0.65, 0.9} {
			sink, _ = p.UQ43(1, x)
		}
		sink, _ = p.PossibleRankKAt(at(0.75), 1)
		sinkBool, _ = p.UQ11(target)
		sinkBool, _ = p.UQ13(target, 0.3)
		sinkBool, _ = p.IsPossibleNNAt(target, at(0.5))
	}
	filled := func(p *Processor) (n int) {
		for i := range p.zone1 {
			if p.zone1[i].peek() != nil {
				n++
			}
		}
		return n
	}
	run := func(b *testing.B, warm bool) {
		b.ReportAllocs()
		scans := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p, err := NewProcessorPrunedCtx(context.Background(), trs, q, tb, te, r, survivors)
			if err != nil {
				b.Fatal(err)
			}
			if warm {
				first(p)
			}
			before := filled(p)
			b.StartTimer()
			if warm {
				rest(p)
			} else {
				first(p)
			}
			b.StopTimer()
			scans += filled(p) - before
			b.StartTimer()
		}
		b.ReportMetric(float64(scans)/float64(b.N), "scans/op")
		b.ReportMetric(float64(len(survivors)), "survivors")
	}
	b.Run("first", func(b *testing.B) { run(b, false) })
	b.Run("rest", func(b *testing.B) { run(b, true) })
}

// BenchmarkBelowIntervals isolates the refine kernel: one zone scan of a
// candidate per iteration, over the candidates within 4r + 1 of the
// envelope at N = 500 (window [0, 60], r = 0.5) — the survivors an index
// pre-pass would keep. "near" scans against the Level-1 envelope at
// δ = 4r (a Level-1 zone row), "level2" against the Level-2 envelope (a
// rank-2 row), "guaranteed" against the Level-1 envelope at δ = −4r (the
// offset of the guaranteed-NN test).
func BenchmarkBelowIntervals(b *testing.B) {
	const n, r = 500, 0.5
	trs, err := workload.Generate(workload.DefaultConfig(2009), n)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProcessor(trs, trs[0], 0, 60, r)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.EnsureLevelsCtx(context.Background(), 2); err != nil {
		b.Fatal(err)
	}
	near := func(e *envelope.Envelope) (fns []*envelope.DistanceFunc) {
		for _, f := range p.table {
			if envelope.MinGap(f, e) <= 4*r+1 {
				fns = append(fns, f)
			}
		}
		return fns
	}
	run := func(e *envelope.Envelope, delta float64) func(*testing.B) {
		fns := near(e)
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRow = envelope.BelowIntervals(fns[i%len(fns)], e, delta)
			}
		}
	}
	b.Run("near", run(p.env1, p.width()))
	b.Run("level2", run(p.levels[1], p.width()))
	b.Run("guaranteed", run(p.env1, -p.width()))
}

var (
	sink     []int64
	sinkBool bool
	sinkRow  []envelope.TimeInterval
)

// BenchmarkProbabilityTable: the P^NN of every UQ31 member over a window,
// at N = 60 and N = 600 (window [17, 27], r = 0.5, a pre-pass's
// survivors), as one table ("table") and as the per-object loop it
// replaced, one series per member ("per-object-reference"). members is K:
// the reference integrates each instant K times, the table once.
func BenchmarkProbabilityTable(b *testing.B) {
	cfg := ThresholdConfig{TimeSamples: 16, Grid: 128}
	for _, n := range []int{60, 600} {
		p, _, _ := prunedFleet(b, n, 7, 17, 27, 0.5)
		members := p.UQ31()
		b.Run(fmt.Sprintf("N=%d/table", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := p.ProbabilityTable(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(members)), "members")
		})
		b.Run(fmt.Sprintf("N=%d/per-object-reference", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, oid := range members {
					if _, _, err := refSeries(context.Background(), p, oid, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(members)), "members")
		})
	}
}
