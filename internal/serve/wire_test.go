package serve

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/trajectory"
)

// TestPackVertsBitExact: the packed form carries every float64 bit
// pattern unchanged — the cases decimal text rounds, drops or cannot
// write at all — through JSON and back.
func TestPackVertsBitExact(t *testing.T) {
	verts := []trajectory.Vertex{
		{X: math.Copysign(0, -1), Y: math.SmallestNonzeroFloat64, T: -math.MaxFloat64},
		{X: math.MaxFloat64, Y: 0x1p-1074 * 3, T: 0.1 + 0.2},
		{X: math.NaN(), Y: math.Inf(1), T: math.Inf(-1)},
	}
	line, err := json.Marshal(WireUpdate{OID: 7, VB: PackVerts(verts)})
	if err != nil {
		t.Fatal(err)
	}
	var wu WireUpdate
	if err := json.Unmarshal(line, &wu); err != nil {
		t.Fatal(err)
	}
	got, err := wireVerts(wu.Verts, wu.VB)
	if err != nil || len(got) != len(verts) {
		t.Fatalf("unpacked %d vertices (%v), want %d", len(got), err, len(verts))
	}
	for i, v := range verts {
		if !sameBits(got[i], v) {
			t.Fatalf("vertex %d: got %v, want %v bit for bit", i, got[i], v)
		}
	}
	// Packed non-finite vertices meet the validation the decimal form
	// meets: JSON cannot write them, the packed form can, trajectory.New
	// refuses them either way.
	if _, err := trajectory.New(7, got); !errors.Is(err, trajectory.ErrNonFinite) {
		t.Fatalf("non-finite packed vertices: err = %v, want ErrNonFinite", err)
	}
}

func sameBits(a, b trajectory.Vertex) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.T) == math.Float64bits(b.T)
}

// FuzzWireVerts: arbitrary packed bytes never panic; a ragged length is
// the typed error and nothing else is; whatever unpacks, packs back to the
// same bytes; and a non-finite vertex never gets past trajectory.New.
func FuzzWireVerts(f *testing.F) {
	f.Add([]byte{})
	f.Add(PackVerts([]trajectory.Vertex{{X: 1, Y: 2, T: 3}, {X: 4, Y: 5, T: 6}}))
	f.Add(PackVerts([]trajectory.Vertex{{X: math.Copysign(0, -1), Y: math.SmallestNonzeroFloat64, T: 0}, {X: math.MaxFloat64, T: 1}}))
	f.Add(PackVerts([]trajectory.Vertex{{X: math.NaN()}, {Y: math.Inf(-1), T: 1}}))
	f.Add(PackVerts([]trajectory.Vertex{{T: 1}, {T: 2}})[:47])
	f.Fuzz(func(t *testing.T, vb []byte) {
		verts, err := wireVerts(nil, vb)
		if ragged := len(vb)%packedVertex != 0; ragged != (err != nil) || ragged != errors.Is(err, ErrBadWire) {
			t.Fatalf("%d bytes: err = %v", len(vb), err)
		}
		if err != nil {
			return
		}
		if back := PackVerts(verts); string(back) != string(vb) {
			t.Fatalf("pack(unpack(b)) != b for %x", vb)
		}
		finite := true
		for _, v := range verts {
			for _, c := range [3]float64{v.X, v.Y, v.T} {
				finite = finite && !math.IsNaN(c) && !math.IsInf(c, 0)
			}
		}
		if _, err := trajectory.New(1, verts); !finite && err == nil {
			t.Fatalf("non-finite vertices validated: %v", verts)
		}
		if len(vb) > 0 {
			if _, err := wireVerts([][3]float64{{0, 0, 0}}, vb); !errors.Is(err, ErrBadWire) {
				t.Fatalf("both forms at once: err = %v, want ErrBadWire", err)
			}
		}
	})
}
