package mod_test

// The write path under tag predicates, measured from outside the package
// (the filtered sweep that keeps a store's read side live is prune's): one
// batch costs what its own updates cost, whatever the size of the fleet
// they land in and however many of them carry tags.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/textidx"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

var avail = &textidx.Predicate{All: []string{"available"}}

// fleetStore holds the first n objects of the regression benchmark's fleet
// (the paper's generator, r = 0.5), every even OID tagged "available".
func fleetStore(tb testing.TB, trs []*trajectory.Trajectory, n int) *mod.Store {
	tb.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.InsertAll(trs[:n]); err != nil {
		tb.Fatal(err)
	}
	for _, tr := range trs[:n] {
		if tr.OID%2 == 0 {
			if err := st.SetTags(tr.OID, []string{"available"}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return st
}

// fleetBatch draws one ingest batch of the benchmark script's shape over
// the first n OIDs: plan revisions anchored at the object's expected
// position at now (one waypoint midway, ending at the horizon), then pure
// tag flips.
func fleetBatch(tb testing.TB, rng *rand.Rand, st *mod.Store, n int, now float64, revisions, flips int) []mod.Update {
	tb.Helper()
	near := func(v float64) float64 { return min(max(v+16*(rng.Float64()-0.5), 0), 40) }
	var us []mod.Update
	for i := 0; i < revisions; i++ {
		tr, err := st.Get(1 + rng.Int63n(int64(n)))
		if err != nil {
			tb.Fatal(err)
		}
		pos := tr.At(now)
		mid := trajectory.Vertex{X: near(pos.X), Y: near(pos.Y), T: (now + 60) / 2}
		end := trajectory.Vertex{X: near(mid.X), Y: near(mid.Y), T: 60}
		us = append(us, mod.Update{OID: tr.OID, Verts: []trajectory.Vertex{{X: pos.X, Y: pos.Y, T: now}, mid, end}})
	}
	for i := 0; i < flips; i++ {
		tags := [][]string{{}, {"available"}}[rng.Intn(2)]
		us = append(us, mod.Update{OID: 1 + rng.Int63n(int64(n)), Tags: &tags})
	}
	return us
}

// filteredSweep is the read between batches: a store only maintains what
// some query has asked for.
func filteredSweep(tb testing.TB, st *mod.Store, qOID int64) {
	tb.Helper()
	q, err := st.Get(qOID)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, _, _, err := prune.ZoneWhereCtx(context.Background(), st, q, 17, 27, 1, avail); err != nil {
		tb.Fatal(err)
	}
}

var raceEnabled bool // set by race_test.go

// TestTaggedIngestDoesNotScaleWithN: the same 240-update batch, a quarter
// of it tag flips, allocates about the same number of bytes on a fleet of
// 1 000 and on one of 8 000. Bytes, not mallocs: copying an N-entry map per
// tagged update — what keeping a tag index live used to cost — is one big
// allocation. Both stores chain their index through the batch: on a much
// smaller fleet its revisions supersede enough segments for the compaction
// rule to cut the chain, and a cut batch defers its index work to the next
// read, which would compare unlike with like.
func TestTaggedIngestDoesNotScaleWithN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	const small, large = 1000, 8000
	trs, err := workload.Generate(workload.DefaultConfig(2009), large)
	if err != nil {
		t.Fatal(err)
	}
	stores := [2]*mod.Store{fleetStore(t, trs, small), fleetStore(t, trs, large)}
	batch := fleetBatch(t, rand.New(rand.NewSource(1)), stores[0], small, 20, 180, 60)
	var bytes [2]uint64
	for i, st := range stores {
		filteredSweep(t, st, 41)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := st.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		bytes[i] = m1.TotalAlloc - m0.TotalAlloc
		// A chained index is current: reading it rebuilds nothing.
		builds := st.IndexStats().SegBuilds
		if st.BuildIndex(0); st.IndexStats().SegBuilds != builds {
			t.Fatalf("N=%d: the batch cut the index chain", []int{small, large}[i])
		}
	}
	t.Logf("ApplyUpdates of %d updates: %d B at N=%d, %d B at N=%d", len(batch), bytes[0], small, bytes[1], large)
	if 2*bytes[1] > 3*bytes[0] {
		t.Fatalf("one batch allocates %d B at N=%d but %d B at N=%d: ingest scales with the fleet", bytes[0], small, bytes[1], large)
	}
}

// BenchmarkApplyUpdatesTagged: the regression benchmark's bulk-ingest
// batch (N = 3 000, 200 revisions + 40 tag flips) with a filtered sweep
// between batches, timing the store's share only.
func BenchmarkApplyUpdatesTagged(b *testing.B) {
	const n = 3000
	trs, err := workload.Generate(workload.DefaultConfig(2009), n)
	if err != nil {
		b.Fatal(err)
	}
	st := fleetStore(b, trs, n)
	rng := rand.New(rand.NewSource(2009))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		filteredSweep(b, st, 41)
		batch := fleetBatch(b, rng, st, n, 10+40*rng.Float64(), 200, 40)
		b.StartTimer()
		if _, err := st.ApplyUpdates(batch); err != nil {
			b.Fatal(err)
		}
	}
}
