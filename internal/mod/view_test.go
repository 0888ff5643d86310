package mod

import (
	"fmt"
	"maps"
	"math/rand/v2"
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
	tv := st.TaggedView()
	if &tv.Trajs[0] != &a[0] || tv.Version != st.Version() {
		t.Fatal("TaggedView does not share the version's snapshot")
	}
	if &st.TaggedView().Tags[0] != &tv.Tags[0] {
		t.Fatal("two reads of one version filled the tag slice twice")
	}
	for i, oid := range tv.OIDs {
		if !slices.Equal(tv.Tags[i], st.Tags(oid)) {
			t.Fatalf("Tags[%d] = %v beside OID %d, which holds %v", i, tv.Tags[i], oid, st.Tags(oid))
		}
	}
	if cap(a) != len(a) || cap(st.View().OIDs) != len(a) || cap(tv.Tags) != len(a) {
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
	if &st.TaggedView().Tags[0] == &tv.Tags[0] {
		t.Fatal("a mutation did not retire the tag slice")
	}
}

// TestViewReuseMatchesFreshBuild: over random mixed batches — revisions,
// tag flips, inserts, retires, an OID retired and re-entered, loading
// Inserts — every View equals one built from the store's maps, and a
// version whose OID set did not move shares the previous View's OIDs
// array while one whose set moved does not.
func TestViewReuseMatchesFreshBuild(t *testing.T) {
	st := viewStore(t, 60)
	rng := rand.New(rand.NewPCG(7, 2025))
	plan := func(t0 float64) []trajectory.Vertex {
		return []trajectory.Vertex{{X: rng.Float64(), Y: rng.Float64(), T: t0}, {X: rng.Float64(), Y: rng.Float64(), T: t0 + 1 + rng.Float64()}}
	}
	nextOID := int64(1_000_000)
	prev := st.TaggedView()
	for round := range 400 {
		oids := prev.OIDs
		pick := func() int64 { return oids[rng.IntN(len(oids))] }
		var batch []Update
		moved := false
		switch kind := rng.IntN(10); {
		case kind == 0:
			nextOID++
			if err := st.Insert(&trajectory.Trajectory{OID: nextOID, Verts: plan(0)}); err != nil {
				t.Fatal(err)
			}
			moved = true
		case kind == 1:
			if err := st.SetTags(pick(), []string{fmt.Sprint("t", rng.IntN(3))}); err != nil {
				t.Fatal(err)
			}
		default:
			used := map[int64]bool{}
			for range 1 + rng.IntN(6) {
				oid := pick()
				if used[oid] {
					continue
				}
				used[oid] = true
				tags := []string{fmt.Sprint("t", rng.IntN(3))}
				tr, _ := st.Get(oid)
				switch op := rng.IntN(12); {
				case op < 5:
					batch = append(batch, Update{OID: oid, Verts: plan(tr.Verts[0].T + 0.5)})
				case op < 9:
					batch = append(batch, Update{OID: oid, Tags: &tags})
				case op == 9 && len(oids) > 20:
					batch = append(batch, Update{OID: oid, Retire: true})
					moved = true
				case op == 10 && len(oids) > 20:
					batch = append(batch, Update{OID: oid, Retire: true}, Update{OID: oid, Verts: plan(0), Tags: &tags})
					moved = true
				default:
					nextOID++
					batch = append(batch, Update{OID: nextOID, Verts: plan(0), Tags: &tags})
					moved = true
				}
			}
			if _, err := st.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
		}
		v := st.TaggedView()
		st.mu.RLock()
		want := slices.Sorted(maps.Keys(st.trajs))
		for i, oid := range want {
			if i >= len(v.OIDs) || v.OIDs[i] != oid || v.Trajs[i] != st.trajs[oid] || !slices.Equal(v.Tags[i], st.tags[oid]) {
				st.mu.RUnlock()
				t.Fatalf("round %d: the View differs from the store's maps at position %d", round, i)
			}
		}
		st.mu.RUnlock()
		if len(v.OIDs) != len(want) || len(v.Trajs) != len(want) || len(v.Tags) != len(want) ||
			cap(v.OIDs) != len(want) || cap(v.Trajs) != len(want) || cap(v.Tags) != len(want) {
			t.Fatalf("round %d: View lengths %d/%d/%d (caps %d/%d/%d), want %d", round,
				len(v.OIDs), len(v.Trajs), len(v.Tags), cap(v.OIDs), cap(v.Trajs), cap(v.Tags), len(want))
		}
		if shared := &v.OIDs[0] == &prev.OIDs[0]; shared == moved {
			t.Fatalf("round %d: OIDs array shared = %v after a batch that moved the OID set = %v", round, shared, moved)
		}
		prev = v
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
// new version all get the one View built for it, and the one tag slice.
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
			tags  [readers][][]string
		)
		for r := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if r%2 == 0 {
					views[r] = st.View()
					tags[r] = st.TaggedView().Tags
				} else {
					tags[r] = st.TaggedView().Tags
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
			if &tags[r][0] != &tags[0][0] {
				t.Fatalf("round %d: readers 0 and %d got two tag slices", round, r)
			}
		}
	}
}
