package mod

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/sindex"
	"repro/internal/trajectory"
)

// FuzzApplyUpdate drives the ingest path with arbitrary streams of
// one-vertex updates: every byte triple becomes an update at some time
// relative to the object's plan end (possibly inside the plan, possibly
// before it, possibly for an unknown OID). A mirror models what each
// update must do:
//
//   - an unknown OID answers ErrShortInsert (one vertex cannot insert);
//   - a time after the plan end extends the plan;
//   - a time inside the plan splices from that time: the vertices before
//     it stay, the new one follows them;
//   - a time at or before the first vertex answers ErrStaleVertex;
//   - a rejected update leaves the version and the plan untouched.
//
// At the end the incrementally maintained segment R-tree must answer
// range search and KNN identically to a from-scratch tree over the entries
// the chain was given: every segment of the loaded plans, then each
// accepted update's new last segment (a splice leaves the superseded ones
// in place, by design) — or over the store's contents when the compaction
// rule cut the chain.
func FuzzApplyUpdate(f *testing.F) {
	const r = 0.5
	segEntry := func(oid int64, a, b trajectory.Vertex) sindex.Entry {
		return sindex.Entry{ID: oid, Box: geom.AABBOf(a.Point(), b.Point()).Expand(r), T0: a.T, T1: b.T}
	}
	f.Add(int64(1), []byte{0x10, 0x20, 0x30, 0x81, 0x05, 0x70, 0xFF, 0x00, 0x01})
	f.Add(int64(7), []byte{})
	f.Add(int64(42), []byte{0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x02, 0x7F, 0x7F})
	f.Add(int64(3), []byte{0x00, 0x40, 0x08, 0x00, 0xFC, 0x10, 0x01, 0x30, 0x04, 0x00, 0xF0, 0x02})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		st, err := NewUniformStore(r)
		if err != nil {
			t.Fatal(err)
		}
		const nObj = 3
		mirror := make(map[int64][]trajectory.Vertex)
		var chained []sindex.Entry
		for oid := int64(1); oid <= nObj; oid++ {
			verts := []trajectory.Vertex{
				{X: float64(oid), Y: 0, T: 0},
				{X: float64(oid) + 1, Y: 1, T: 1},
			}
			tr, err := trajectory.New(oid, append([]trajectory.Vertex(nil), verts...))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Insert(tr); err != nil {
				t.Fatal(err)
			}
			mirror[oid] = verts
			chained = append(chained, segEntry(oid, verts[0], verts[1]))
		}
		st.BuildIndex(0)

		for i := 0; i+3 <= len(data); i += 3 {
			oid := int64(data[i]%(nObj+1)) + 1 // 1..nObj+1; the last is unknown
			dt := float64(int8(data[i+1])) / 8 // relative to the plan end
			dx := float64(int8(data[i+2])) / 4
			vBefore := st.Version()
			plan := mirror[oid]
			var lastT float64
			if len(plan) > 0 {
				lastT = plan[len(plan)-1].T
			}
			v := trajectory.Vertex{X: dx, Y: dx / 2, T: lastT + dt}
			a, err := applyOne(st, Update{OID: oid, Verts: []trajectory.Vertex{v}})
			var (
				want        []trajectory.Vertex
				changedFrom float64
			)
			switch {
			case oid > nObj:
				if !errors.Is(err, ErrShortInsert) {
					t.Fatalf("one-vertex update of unknown OID %d: err = %v, want ErrShortInsert", oid, err)
				}
			case v.T <= plan[0].T:
				if !errors.Is(err, ErrStaleVertex) {
					t.Fatalf("update at t=%g, plan from t=%g: err = %v, want ErrStaleVertex", v.T, plan[0].T, err)
				}
			case dt > 0:
				want, changedFrom = append(slices.Clip(plan), v), lastT
			default:
				keep := 0
				for plan[keep].T < v.T {
					keep++
				}
				want, changedFrom = append(slices.Clone(plan[:keep]), v), plan[keep-1].T
			}
			if want == nil {
				if err == nil {
					t.Fatal("a rejected update was applied")
				}
				if st.Version() != vBefore {
					t.Fatal("a rejected update bumped the version")
				}
				if oid <= nObj {
					if got, _ := st.Get(oid); !slices.Equal(got.Verts, plan) {
						t.Fatalf("a rejected update changed oid %d's plan", oid)
					}
				}
				continue
			}
			if err != nil {
				t.Fatalf("update at t=%g of oid %d rejected: %v", v.T, oid, err)
			}
			if a.ChangedFrom != changedFrom || !slices.Equal(a.Traj.Verts, want) {
				t.Fatalf("oid %d at t=%g: changed from %g to %v, want from %g to %v", oid, v.T, a.ChangedFrom, a.Traj.Verts, changedFrom, want)
			}
			mirror[oid] = want
			// A one-vertex update's motion changes on its last segment
			// alone: that segment is the one entry the chain must add.
			chained = append(chained, segEntry(oid, want[len(want)-2], want[len(want)-1]))
		}

		// Contents must equal the mirror, and every trajectory stays valid.
		for oid, verts := range mirror {
			got, err := st.Get(oid)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("oid %d invalid after updates: %v", oid, err)
			}
			if !slices.Equal(got.Verts, verts) {
				t.Fatalf("oid %d holds %v, want %v", oid, got.Verts, verts)
			}
		}

		// Incremental index == rebuild over the same entries: the chained
		// ones, or the store's contents once the compaction rule cut the
		// chain and the final BuildIndex compacted.
		live := st.BuildIndex(0)
		rebuilt := sindex.NewRTree(chained, 0)
		if st.IndexStats().SegBuilds > 1 {
			fresh, err := NewUniformStore(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.InsertAll(st.All()); err != nil {
				t.Fatal(err)
			}
			rebuilt = fresh.BuildIndex(0)
		}
		if live.Len() != rebuilt.Len() {
			t.Fatalf("entry counts differ: %d vs %d", live.Len(), rebuilt.Len())
		}
		rng := rand.New(rand.NewSource(seed))
		for q := 0; q < 20; q++ {
			x, y := rng.Float64()*40-20, rng.Float64()*40-20
			box := geom.AABB{MinX: x, MinY: y, MaxX: x + rng.Float64()*20, MaxY: y + rng.Float64()*20}
			t0 := rng.Float64() * 20
			t1 := t0 + rng.Float64()*20
			got := searchRange(live, box, t0, t1)
			want := searchRange(rebuilt, box, t0, t1)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("range search differs post-update: %v vs %v", got, want)
			}
			p := geom.Point{X: rng.Float64()*40 - 20, Y: rng.Float64()*40 - 20}
			gn := live.KNN(p, t0, 3)
			wn := rebuilt.KNN(p, t0, 3)
			if len(gn) != len(wn) {
				t.Fatalf("KNN lengths differ post-update: %d vs %d", len(gn), len(wn))
			}
			for i := range gn {
				if math.Abs(gn[i].Dist-wn[i].Dist) > 1e-9 {
					t.Fatalf("KNN dist %g vs %g post-update", gn[i].Dist, wn[i].Dist)
				}
			}
		}
	})
}
