package mod

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"repro/internal/trajectory"
	"repro/internal/workload"
)

// refSaveBinary is SaveBinary as it was, one binary.Write per field and
// per vertex: the byte-identity reference of the buffered encoder.
func refSaveBinary(s *Store, w io.Writer) error {
	s.mu.RLock()
	trs := s.viewLocked().Trajs
	spec := s.spec
	tags := make(map[int64][]string, len(s.tags))
	for oid, ts := range s.tags {
		tags[oid] = ts
	}
	s.mu.RUnlock()
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	kind := []byte(spec.Kind)
	if err := binary.Write(w, binary.LittleEndian, uint8(len(kind))); err != nil {
		return err
	}
	if _, err := w.Write(kind); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, [2]float64{spec.R, spec.Sigma}); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(trs))); err != nil {
		return err
	}
	for _, tr := range trs {
		if err := refWriteTrajectory(tr, w); err != nil {
			return err
		}
	}
	oids := make([]int64, 0, len(tags))
	for oid := range tags {
		oids = append(oids, oid)
	}
	slices.Sort(oids)
	if err := binary.Write(w, binary.LittleEndian, uint32(len(oids))); err != nil {
		return err
	}
	for _, oid := range oids {
		if err := binary.Write(w, binary.LittleEndian, oid); err != nil {
			return err
		}
		ts := tags[oid]
		if err := binary.Write(w, binary.LittleEndian, uint16(len(ts))); err != nil {
			return err
		}
		for _, tag := range ts {
			if err := binary.Write(w, binary.LittleEndian, uint16(len(tag))); err != nil {
				return err
			}
			if _, err := io.WriteString(w, tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// refWriteTrajectory is trajectory.WriteBinary as it was.
func refWriteTrajectory(tr *trajectory.Trajectory, w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, tr.OID); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(tr.Verts))); err != nil {
		return err
	}
	for _, v := range tr.Verts {
		if err := binary.Write(w, binary.LittleEndian, [3]float64{v.X, v.Y, v.T}); err != nil {
			return err
		}
	}
	return nil
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errFull = errors.New("writer full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestSaveBinaryMatchesReference: the buffered encoder writes the
// reference's bytes on empty, untagged and tagged stores of both pdf kinds,
// including fleets whose encoding spans many buffer chunks, and a writer
// that fails mid-stream fails the save.
func TestSaveBinaryMatchesReference(t *testing.T) {
	tagSets := [][]string{{"available"}, {"ev", "available"}, {"max-length-tag-" + string(bytes.Repeat([]byte("x"), 49))}, {}}
	for _, tc := range []struct {
		spec   PDFSpec
		n      int
		tagged int64 // every tagged-th OID carries tags; 0: none
	}{
		{PDFSpec{Kind: PDFUniform, R: 0.5}, 0, 0},
		{PDFSpec{Kind: PDFUniform, R: 0.5}, 30, 0},
		{PDFSpec{Kind: PDFBoundedGaussian, R: 1.5, Sigma: 0.6}, 30, 3},
		{PDFSpec{Kind: PDFUniform, R: 0.5}, 3000, 2},
	} {
		name := fmt.Sprintf("%s/N=%d/tagged=%d", tc.spec.Kind, tc.n, tc.tagged)
		st, err := NewStore(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if tc.n > 0 {
			trs, err := workload.Generate(workload.DefaultConfig(2009), tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.InsertAll(trs); err != nil {
				t.Fatal(err)
			}
			for i, tr := range trs {
				if tc.tagged > 0 && tr.OID%tc.tagged == 0 {
					if err := st.SetTags(tr.OID, tagSets[i%len(tagSets)]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var got, want bytes.Buffer
		if err := st.SaveBinary(&got); err != nil {
			t.Fatal(err)
		}
		if err := refSaveBinary(st, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: %d bytes differ from the reference's %d", name, got.Len(), want.Len())
		}
		if tc.n >= 3000 && got.Len() < 4*saveChunk {
			t.Fatalf("%s: %d bytes do not span several chunks", name, got.Len())
		}
		for _, cut := range []int{0, 7, got.Len() / 2, got.Len() - 1} {
			if err := st.SaveBinary(&failAfter{n: cut}); !errors.Is(err, errFull) {
				t.Fatalf("%s: a writer full after %d bytes: %v", name, cut, err)
			}
		}
	}
}
