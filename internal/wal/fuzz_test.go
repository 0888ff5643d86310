package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"repro/internal/mod"
	"repro/internal/trajectory"
)

// vertBits flattens vertices to their IEEE-754 bits so NaN payloads
// compare by representation, not by (never-equal) float comparison.
func vertBits(vs []trajectory.Vertex) []byte {
	out := make([]byte, 0, 24*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.X))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.Y))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.T))
	}
	return out
}

// FuzzWALRecord drives decodeRecord (current layout) with arbitrary
// bytes. Invariants: never panic, never consume more bytes than given, and
// never return a batch unless the frame's checksum genuinely covers the payload — a
// truncated, corrupted, or bit-flipped record must surface as an error
// (or as a clean zero-consumption end), not as a wrong decode.
func FuzzWALRecord(f *testing.F) {
	seed := [][]mod.Update{
		nil,
		{{OID: 1, Verts: []trajectory.Vertex{{X: 1, Y: 2, T: 3}}}},
		{
			{OID: -7, Verts: []trajectory.Vertex{{X: 0.5, Y: -1.25, T: 0}, {X: 2, Y: 2, T: 1}}},
			{OID: 1 << 40, Verts: []trajectory.Vertex{{X: -3, Y: 8, T: 2.5}}},
		},
		{
			{OID: 4, Tags: &[]string{"ev", "wheelchair"}},
			{OID: 5, Tags: &[]string{}},
			{OID: 6, Verts: []trajectory.Vertex{{X: 1, Y: 1, T: 0}}, Tags: &[]string{"night"}},
		},
	}
	for _, batch := range seed {
		enc, err := AppendRecord(nil, batch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		// Truncations and bit flips of valid records steer the fuzzer at
		// the interesting boundaries.
		if len(enc) > 1 {
			f.Add(enc[:len(enc)/2])
			flip := append([]byte(nil), enc...)
			flip[len(flip)-1] ^= 0x01
			f.Add(flip)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		batch, n, err := decodeRecord(b, 3)
		if n < 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if err != nil {
			return
		}
		if n == 0 {
			if len(b) != 0 {
				t.Fatalf("zero consumption on %d bytes without error", len(b))
			}
			return
		}
		// A successful decode must be checksum-honest...
		plen := binary.LittleEndian.Uint32(b)
		want := binary.LittleEndian.Uint32(b[4:])
		payload := b[recordHeaderSize : recordHeaderSize+int(plen)]
		if crc32.Checksum(payload, crcTable) != want {
			t.Fatal("decode succeeded with a wrong checksum")
		}
		// ...and must survive a re-encode/re-decode round trip bit-exactly.
		enc, err := AppendRecord(nil, batch)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, m, err := decodeRecord(enc, 3)
		if err != nil || m != len(enc) {
			t.Fatalf("re-decode: n=%d err=%v", m, err)
		}
		if len(again) != len(batch) {
			t.Fatalf("round trip lost updates: %d vs %d", len(again), len(batch))
		}
		for i := range again {
			if again[i].OID != batch[i].OID || !bytes.Equal(vertBits(again[i].Verts), vertBits(batch[i].Verts)) {
				t.Fatalf("round trip changed update %d", i)
			}
			a, b := again[i].Tags, batch[i].Tags
			if (a == nil) != (b == nil) || (a != nil && !slices.Equal(*a, *b)) {
				t.Fatalf("round trip changed update %d tags", i)
			}
		}
	})
}
