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

// TestTaggedIngestDoesNotScaleWithN: a 60-update batch, a quarter of it
// tag flips, on a fleet of 8 000 allocates at most updateBudget bytes per
// update — a budget for an update's own work (its plan, its segments, the
// index leaf it touches, its outcome), which no fleet size enters. Copying
// an N-entry column once per batch, what keeping a tag index live used to
// cost, adds 192 kB for 8 000 slice headers alone, 3.2 kB per update. The
// bound is on one fleet, not a ratio of two: a ratio also moves with
// savings that differ between fleet sizes (a small fleet's batch
// re-touches its index leaves). The store chains its index through the
// batch, so no index work is deferred to the next read.
func TestTaggedIngestDoesNotScaleWithN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	const n, updateBudget = 8000, 5 << 10
	trs, err := workload.Generate(workload.DefaultConfig(2009), n)
	if err != nil {
		t.Fatal(err)
	}
	st := fleetStore(t, trs, n)
	batch := fleetBatch(t, rand.New(rand.NewSource(1)), st, n, 20, 45, 15)
	filteredSweep(t, st, 41)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := st.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	perUpdate := (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(batch))
	builds := st.IndexStats().SegBuilds
	if st.BuildIndex(0); st.IndexStats().SegBuilds != builds {
		t.Fatal("the batch cut the index chain")
	}
	t.Logf("ApplyUpdates of %d updates at N=%d: %d B per update", len(batch), n, perUpdate)
	if perUpdate > updateBudget {
		t.Fatalf("one batch allocates %d B per update at N=%d, over the %d B an update's own work takes: ingest scales with the fleet", perUpdate, n, updateBudget)
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
