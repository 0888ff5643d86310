package mod

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/sindex"
	"repro/internal/trajectory"
)

// ApplyUpdates is one critical section and one index step per batch. What
// it must not change is anything a caller can count or read: the outcomes,
// the versions, which batches the compaction rule cuts a chain at, and what
// the chained tree answers. The oracle is the loop of single updates that
// ApplyUpdates used to be.

// randomBatch draws a batch over the revision fleet's OIDs: mostly tail
// revisions, some tag flips, now and then a retirement or a (re-)insert.
func randomBatch(rng *rand.Rand, size int) []Update {
	us := make([]Update, 0, size)
	for len(us) < size {
		oid := int64(1 + rng.Intn(revisionFleetSize+5))
		y := float64(oid)
		switch r := rng.Intn(60); {
		case r == 0:
			us = append(us, Update{OID: oid, Retire: true})
		case r == 1:
			us = append(us, Update{OID: oid, Verts: []trajectory.Vertex{{X: 0, Y: y, T: 0}, {X: 4, Y: y, T: 4}, {X: 6, Y: y + 1, T: 6}}})
		case r < 10:
			tags := [][]string{{}, {"ev"}, {"ev", "available"}}[rng.Intn(3)]
			us = append(us, Update{OID: oid, Tags: &tags})
		default:
			t0 := 4.5 + rng.Float64()
			us = append(us, Update{OID: oid, Verts: []trajectory.Vertex{
				{X: t0, Y: y, T: t0}, {X: 7, Y: y + rng.Float64(), T: 7}, {X: 10, Y: y, T: 10},
			}})
		}
	}
	return us
}

// applyOneByOne is ApplyUpdates as a loop of batches of one.
func applyOneByOne(st *Store, us []Update) ([]Applied, error) {
	out := make([]Applied, 0, len(us))
	for _, u := range us {
		a, err := applyOne(st, u)
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
	return out, nil
}

// indexVersion is the store version the cached index belongs to.
func indexVersion(st *Store) uint64 {
	st.idxMu.Lock()
	defer st.idxMu.Unlock()
	return st.idxVersion
}

func sortedRange(tree *sindex.RTree, box geom.AABB, t0, t1 float64) []int64 {
	ids := searchRange(tree, box, t0, t1)
	slices.Sort(ids)
	return ids
}

func TestApplyUpdatesEqualsLoopOfSingleUpdates(t *testing.T) {
	batched, looped := revisionFleet(t), revisionFleet(t)
	batched.BuildIndex(0)
	looped.BuildIndex(0)
	rng := rand.New(rand.NewSource(23))
	failed := 0
	for round := 0; round < 120; round++ {
		batch := randomBatch(rng, 1+rng.Intn(40))
		got, gotErr := batched.ApplyUpdates(batch)
		want, wantErr := applyOneByOne(looped, batch)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("round %d: %d outcomes, err %v; the loop gives %d, err %v", round, len(got), gotErr, len(want), wantErr)
		}
		if gotErr != nil {
			failed++
		}
		if b, l := batched.IndexStats(), looped.IndexStats(); b != l {
			t.Fatalf("round %d: stats %+v, the loop's %+v", round, b, l)
		}
		if batched.Version() != looped.Version() || indexVersion(batched) != indexVersion(looped) {
			t.Fatalf("round %d: version %d index %d, the loop's %d and %d", round,
				batched.Version(), indexVersion(batched), looped.Version(), indexVersion(looped))
		}
		// Consult the cache, as the queries between two batches would.
		bi, li := batched.BuildIndex(0), looped.BuildIndex(0)
		if bi.Len() != li.Len() {
			t.Fatalf("round %d: %d segment entries, the loop's %d", round, bi.Len(), li.Len())
		}
		x, y := rng.Float64()*8, rng.Float64()*40
		box := geom.AABB{MinX: x, MinY: y, MaxX: x + 3, MaxY: y + 6}
		if !slices.Equal(sortedRange(bi, box, 2, 9), sortedRange(li, box, 2, 9)) {
			t.Fatalf("round %d: the segment trees answer differently", round)
		}
	}
	stats := batched.IndexStats()
	if stats.SegBuilds < 3 || failed == 0 {
		t.Fatalf("the rounds cut %d chains and failed %d batches: not the cases this test is for", stats.SegBuilds-1, failed)
	}
}

// TestApplyUpdatesFailureKeepsThePrefixIndexed: an error at update j leaves
// the updates before it applied and chained into the index.
func TestApplyUpdatesFailureKeepsThePrefixIndexed(t *testing.T) {
	st := revisionFleet(t)
	idx := st.BuildIndex(0)
	v0 := st.Version()
	rev := func(oid int64) Update {
		return Update{OID: oid, Verts: []trajectory.Vertex{{X: 5, Y: float64(oid), T: 5}, {X: 9, Y: float64(oid), T: 9}}}
	}
	applied, err := st.ApplyUpdates([]Update{rev(1), rev(2), {OID: 3, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: -1}}}, rev(4)})
	if !errors.Is(err, ErrStaleVertex) || len(applied) != 2 {
		t.Fatalf("applied %d, err %v", len(applied), err)
	}
	if st.Version() != v0+2 || indexVersion(st) != v0+2 {
		t.Fatalf("version %d, index version %d, want both %d", st.Version(), indexVersion(st), v0+2)
	}
	if next := st.BuildIndex(0); next == idx || next.Len() != idx.Len()+4 || st.IndexStats().SegBuilds != 1 {
		t.Fatalf("the prefix was not chained: %d entries after %d, stats %+v", next.Len(), idx.Len(), st.IndexStats())
	}
}

// TestConcurrentBatchesBesideIndexReaders: two goroutines apply batches
// while others consult the cache. A batch that finds the cache more than
// one version behind leaves it stale for the next reader to rebuild; one
// that finds it current chains it. Either way the index a reader gets
// holds every segment live at its version — checked once everything has
// stopped — and nobody deadlocks (idxMu is never taken under mu).
func TestConcurrentBatchesBesideIndexReaders(t *testing.T) {
	st := revisionFleet(t)
	st.BuildIndex(0)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 150; round++ {
				var batch []Update
				for i := 0; i < 12; i++ {
					// Disjoint OIDs per writer, so every update is valid
					// whatever the interleaving.
					oid := int64(1 + 2*rng.Intn(revisionFleetSize/2) + w)
					t0 := 4.5 + rng.Float64()
					batch = append(batch, Update{OID: oid, Verts: []trajectory.Vertex{
						{X: t0, Y: float64(oid), T: t0}, {X: 8, Y: float64(oid) + rng.Float64(), T: 8}, {X: 10, Y: float64(oid), T: 10},
					}})
				}
				if _, err := st.ApplyUpdates(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				searchRange(st.BuildIndex(0), geom.AABB{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 0, 10)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	requireHoldsEveryLiveSegment(t, st, st.BuildIndex(0))
	if indexVersion(st) != st.Version() {
		t.Fatalf("index at version %d, store at %d", indexVersion(st), st.Version())
	}
}

func requireHoldsEveryLiveSegment(t *testing.T, st *Store, tree *sindex.RTree) {
	t.Helper()
	for _, tr := range st.All() {
		for i := 0; i < tr.NumSegments(); i++ {
			seg, t0, t1 := tr.Segment(i)
			found := false
			tree.Visit(geom.AABBOf(seg.A.Lerp(seg.B, 0.5)), (t0+t1)/2, (t0+t1)/2, func(id int64) bool {
				found = id == tr.OID
				return !found
			})
			if !found {
				t.Fatalf("the index misses segment %d of object %d", i, tr.OID)
			}
		}
	}
}
