package mod_test

import (
	"testing"

	"repro/internal/mod"
	"repro/internal/simtest"
)

// BenchmarkBuildIndex is one compacting rebuild of the segment R-tree: the
// adhoc_cold benchmark fleet (benchmark/spec.go: seed 2009, N = 3 000,
// 200 revisions a batch) after 150 of its revision batches, 36 424 live
// segments. Each iteration loads the trajectories into a fresh store
// outside the timer and times its first BuildIndex, which is what a read
// pays after the compaction rule cut the chain.
func BenchmarkBuildIndex(b *testing.B) {
	const batches = 150
	w, err := simtest.NewWorld(simtest.Config{
		Seed: 2009, N: 3000, Held: 4, R: 0.5,
		Steps: 272, PerStep: 200, Protect: 512,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < batches; i++ {
		if _, err := w.StepSized(200, 40, 0); err != nil {
			b.Fatal(err)
		}
	}
	snap, err := w.SnapshotStore()
	if err != nil {
		b.Fatal(err)
	}
	trs := snap.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := mod.NewUniformStore(0.5)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.InsertAll(trs); err != nil {
			b.Fatal(err)
		}
		st.All() // the sorted view a query's snapshot builds first
		b.StartTimer()
		if n := st.BuildIndex(0).Len(); n == 0 {
			b.Fatal("empty index")
		}
	}
}
