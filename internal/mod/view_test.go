package mod

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/trajectory"
	"repro/internal/workload"
)

// viewStore holds n generated plans, every third one tagged.
func viewStore(t *testing.T, n int) *Store {
	t.Helper()
	trs, err := workload.Generate(workload.DefaultConfig(3), n)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t)
	if err := st.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		if tr.OID%3 == 0 {
			if err := st.SetTags(tr.OID, []string{"ev"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// TestViewSharedPerVersion: readers of one store version share one sorted
// snapshot, a mutation retires it, and a caller's append cannot reach the
// shared array.
func TestViewSharedPerVersion(t *testing.T) {
	st := viewStore(t, 50)
	a, b := st.All(), st.All()
	if &a[0] != &b[0] {
		t.Fatal("two reads of one version built two snapshots")
	}
	if trs, _, v := st.AllWithTags(); &trs[0] != &a[0] || v != st.Version() {
		t.Fatal("AllWithTags does not share the version's snapshot")
	}
	sameMap := func(x, y map[int64][]string) bool {
		return reflect.ValueOf(x).Pointer() == reflect.ValueOf(y).Pointer()
	}
	_, tags1, _ := st.AllWithTags()
	if _, tags2, _ := st.AllWithTags(); !sameMap(tags1, tags2) {
		t.Fatal("two reads of one version copied the tag map twice")
	}
	if cap(a) != len(a) || cap(st.View().OIDs) != len(a) {
		t.Fatalf("snapshot slices have spare capacity (%d > %d): an append would write into them", cap(a), len(a))
	}
	grown := append(a, a[0])
	if &grown[0] == &a[0] {
		t.Fatal("append extended the shared array in place")
	}
	if _, err := applyOne(st, Update{OID: a[0].OID, Verts: []trajectory.Vertex{{X: 1, Y: 1, T: 1e6}}}); err != nil {
		t.Fatal(err)
	}
	c := st.All()
	if &c[0] == &a[0] || c[0] == a[0] {
		t.Fatal("a mutation did not retire the snapshot")
	}
	if _, tags3, _ := st.AllWithTags(); sameMap(tags1, tags3) {
		t.Fatal("a mutation did not retire the tag-map copy")
	}
}

// TestViewUnderConcurrentUpdates (run it with -race): while one goroutine
// applies update batches, every snapshot a reader gets is sorted, is the
// complete contents of the version it names, and never changes afterwards.
func TestViewUnderConcurrentUpdates(t *testing.T) {
	st := viewStore(t, 40)
	base, v0 := st.Len(), st.Version()
	const rounds = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type seen struct {
				v    *View
				trs  []*trajectory.Trajectory
				oids []int64
			}
			var held []seen
			for {
				select {
				case <-stop:
					for _, h := range held {
						if !slices.Equal(h.v.Trajs, h.trs) || !slices.Equal(h.v.OIDs, h.oids) {
							t.Errorf("the snapshot of version %d changed after it was handed out", h.v.Version)
						}
					}
					return
				default:
				}
				v := st.View()
				if !slices.IsSorted(v.OIDs) || len(v.Trajs) != len(v.OIDs) {
					t.Errorf("version %d: snapshot not sorted or ragged", v.Version)
					return
				}
				for i, tr := range v.Trajs {
					if tr.OID != v.OIDs[i] {
						t.Errorf("version %d: OIDs[%d] = %d beside trajectory %d", v.Version, i, v.OIDs[i], tr.OID)
						return
					}
				}
				// Each round is one version per update: two inserts, then a
				// revision, then a retire of the round's second insert — so
				// the version number says exactly how many objects it holds.
				done, step := (v.Version-v0)/4, (v.Version-v0)%4
				want := base + int(done) + []int{0, 1, 2, 2}[step]
				if len(v.OIDs) != want {
					t.Errorf("version %d holds %d objects, want %d: not the complete contents of any version", v.Version, len(v.OIDs), want)
					return
				}
				if len(held) < 64 {
					held = append(held, seen{v, slices.Clone(v.Trajs), slices.Clone(v.OIDs)})
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		a, b := int64(10_000+2*i), int64(10_001+2*i)
		plan := []trajectory.Vertex{{X: 1, Y: 2, T: 0}, {X: 3, Y: 4, T: 60}}
		if _, err := st.ApplyUpdates([]Update{
			{OID: a, Verts: plan}, {OID: b, Verts: plan},
			{OID: a, Verts: []trajectory.Vertex{{X: 5, Y: 5, T: 30}, {X: 6, Y: 6, T: 60}}},
			{OID: b, Retire: true},
		}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestViewBuiltOncePerVersion (run it with -race): readers that race on a
// new version all get the one View built for it, and the one tag-map copy.
func TestViewBuiltOncePerVersion(t *testing.T) {
	st := viewStore(t, 400)
	oid := st.OIDs()[0]
	const readers = 8
	for round := 0; round < 50; round++ {
		if _, err := st.ApplyUpdates([]Update{{OID: oid, Verts: []trajectory.Vertex{{X: 1, Y: 1, T: 1e6 + float64(round)}}}}); err != nil {
			t.Fatal(err)
		}
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			views [readers]*View
			tags  [readers]map[int64][]string
		)
		for r := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if r%2 == 0 {
					views[r] = st.View()
					_, tags[r], _ = st.AllWithTags()
				} else {
					_, tags[r], _ = st.AllWithTags()
					views[r] = st.View()
				}
			}()
		}
		close(start)
		wg.Wait()
		for r := 1; r < readers; r++ {
			if views[r] != views[0] {
				t.Fatalf("round %d: readers 0 and %d got two Views of version %d", round, r, views[0].Version)
			}
			if reflect.ValueOf(tags[r]).Pointer() != reflect.ValueOf(tags[0]).Pointer() {
				t.Fatalf("round %d: readers 0 and %d got two tag-map copies", round, r)
			}
		}
	}
}
