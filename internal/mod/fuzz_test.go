package mod

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

// FuzzAppendVertex drives the live mutation path with arbitrary update
// streams: every byte triple becomes an append (possibly stale, possibly
// to an unknown OID). Invariants checked after each step and at the end:
//
//   - monotone-time enforcement: a rejected append leaves the version and
//     the stored trajectory untouched; an accepted one appends exactly the
//     vertex and keeps the trajectory valid;
//   - the incrementally maintained segment R-tree answers SearchRange and
//     KNN identically to a from-scratch rebuild over the same contents
//     (the PR 2 oracle, re-run post-append).
func FuzzAppendVertex(f *testing.F) {
	f.Add(int64(1), []byte{0x10, 0x20, 0x30, 0x81, 0x05, 0x70, 0xFF, 0x00, 0x01})
	f.Add(int64(7), []byte{})
	f.Add(int64(42), []byte{0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x02, 0x7F, 0x7F})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		st, err := NewUniformStore(0.5)
		if err != nil {
			t.Fatal(err)
		}
		const nObj = 3
		mirror := make(map[int64][]trajectory.Vertex)
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
		}
		st.BuildIndex(0)

		for i := 0; i+3 <= len(data); i += 3 {
			oid := int64(data[i]%(nObj+1)) + 1 // 1..nObj+1; the last is unknown
			dt := float64(int8(data[i+1])) / 8 // may be <= 0: stale
			dx := float64(int8(data[i+2])) / 4
			vBefore := st.Version()
			var lastT float64
			if vs, ok := mirror[oid]; ok {
				lastT = vs[len(vs)-1].T
			}
			v := trajectory.Vertex{X: dx, Y: dx / 2, T: lastT + dt}
			err := st.AppendVertex(oid, v)
			switch {
			case oid > nObj:
				if err == nil {
					t.Fatalf("append to unknown OID %d accepted", oid)
				}
			case dt <= 0:
				if err == nil {
					t.Fatalf("stale append (dt=%g) accepted", dt)
				}
				if st.Version() != vBefore {
					t.Fatal("rejected append bumped the version")
				}
			default:
				if err != nil {
					t.Fatalf("valid append rejected: %v", err)
				}
				mirror[oid] = append(mirror[oid], v)
			}
		}

		// Contents must equal the mirror, and every trajectory stays valid.
		for oid, verts := range mirror {
			got, err := st.Get(oid)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("oid %d invalid after appends: %v", oid, err)
			}
			if len(got.Verts) != len(verts) {
				t.Fatalf("oid %d has %d verts, want %d", oid, len(got.Verts), len(verts))
			}
		}

		// Incremental index == rebuild (PR 2 oracles, post-append).
		live := st.BuildIndex(0)
		fresh, err := NewUniformStore(0.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.InsertAll(st.All()); err != nil {
			t.Fatal(err)
		}
		rebuilt := fresh.BuildIndex(0)
		if live.Len() != rebuilt.Len() {
			t.Fatalf("entry counts differ: %d vs %d", live.Len(), rebuilt.Len())
		}
		rng := rand.New(rand.NewSource(seed))
		for q := 0; q < 20; q++ {
			x, y := rng.Float64()*40-20, rng.Float64()*40-20
			box := geom.AABB{MinX: x, MinY: y, MaxX: x + rng.Float64()*20, MaxY: y + rng.Float64()*20}
			t0 := rng.Float64() * 20
			t1 := t0 + rng.Float64()*20
			got := live.SearchRange(box, t0, t1)
			want := rebuilt.SearchRange(box, t0, t1)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("SearchRange differs post-append: %v vs %v", got, want)
			}
			p := geom.Point{X: rng.Float64()*40 - 20, Y: rng.Float64()*40 - 20}
			gn := live.KNN(p, t0, 3)
			wn := rebuilt.KNN(p, t0, 3)
			if len(gn) != len(wn) {
				t.Fatalf("KNN lengths differ post-append: %d vs %d", len(gn), len(wn))
			}
			for i := range gn {
				if math.Abs(gn[i].Dist-wn[i].Dist) > 1e-9 {
					t.Fatalf("KNN dist %g vs %g post-append", gn[i].Dist, wn[i].Dist)
				}
			}
		}
	})
}
