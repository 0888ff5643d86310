package prune

// Per-layer micro-benchmarks and allocation ceilings of the pre-pass, on
// the regression benchmark's fleet: the paper's generator at N = 3000,
// r = 0.5, a 10-minute window.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/mod"
	"repro/internal/textidx"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

const fleetTb, fleetTe = 17.0, 27.0 // ten minutes, across a fleet-wide velocity change

func fleetSweep(tb testing.TB) (*Sweep, []*trajectory.Trajectory) {
	trs, err := workload.Generate(workload.DefaultConfig(2009), 3000)
	if err != nil {
		tb.Fatal(err)
	}
	store, err := mod.NewUniformStore(0.5)
	if err != nil {
		tb.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		tb.Fatal(err)
	}
	return newSweep(store, trs[41], fleetTb, fleetTe, nil), trs
}

func BenchmarkSweepBounds(b *testing.B) {
	s, _ := fleetSweep(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.probe(ctx, s.probeWidth(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSurvivors(b *testing.B) {
	s, _ := fleetSweep(b)
	ctx := context.Background()
	bounds, err := s.Bounds(ctx, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Survivors(ctx, bounds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinCrispDist(b *testing.B) {
	s, trs := fleetSweep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinCrispDist(trs[i%len(trs)], s.q, fleetTb, fleetTe)
	}
}

// BenchmarkSweepFiltered: the whole filtered pre-pass of a cold query —
// snapshot restriction, probe phase, corridor sweep — at two fleet sizes
// and with one object in 2, 20 and 200 matching the predicate.
func BenchmarkSweepFiltered(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{3000, 20000} {
		trs, err := workload.Generate(workload.DefaultConfig(2009), n)
		if err != nil {
			b.Fatal(err)
		}
		for _, every := range []int64{2, 20, 200} {
			store, err := mod.NewUniformStore(0.5)
			if err != nil {
				b.Fatal(err)
			}
			if err := store.InsertAll(trs); err != nil {
				b.Fatal(err)
			}
			for _, tr := range trs {
				if tr.OID%every == 0 {
					if err := store.SetTags(tr.OID, []string{"available"}); err != nil {
						b.Fatal(err)
					}
				}
			}
			where := &textidx.Predicate{All: []string{"available"}}
			zone := func() {
				if _, _, _, _, err := ZoneWhereCtx(ctx, store, trs[41], fleetTb, fleetTe, 1, where); err != nil {
					b.Fatal(err)
				}
			}
			zone() // build the store's index outside the timed loops
			b.Run(fmt.Sprintf("N=%d/match=%g%%", n, 100/float64(every)), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					zone()
				}
			})
		}
	}
}

var raceEnabled bool // set by race_test.go

// TestPrePassAllocs: the exact distance allocates nothing, and a sweep
// allocates its answer and a closure — however many objects the index
// nominates and however many of them survive.
func TestPrePassAllocs(t *testing.T) {
	s, trs := fleetSweep(t)
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() { MinCrispDist(trs[7], s.q, fleetTb, fleetTe) }); allocs != 0 {
		t.Fatalf("MinCrispDist allocates %v times, want 0", allocs)
	}
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	tight, err := s.Bounds(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide := make([]float64, len(tight))
	for i := range wide {
		wide[i] = tight[i] + 12
	}
	const ceiling = 6
	var kept [2]int
	for i, bounds := range [][]float64{tight, wide} {
		out, _, err := s.Survivors(ctx, bounds) // and warm the scratch pool
		if err != nil {
			t.Fatal(err)
		}
		kept[i] = len(out)
		if allocs := testing.AllocsPerRun(20, func() { s.Survivors(ctx, bounds) }); allocs > ceiling {
			t.Fatalf("Sweep.Survivors keeping %d of %d allocates %v times, want <= %d", len(out), s.candidates, allocs, ceiling)
		}
	}
	if kept[0] == 0 || kept[1] < 5*kept[0] {
		t.Fatalf("survivors %v: the wide sweep should keep several times more", kept)
	}
}
