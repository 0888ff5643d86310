package mod

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	st, err := NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func traj(t *testing.T, oid int64) *trajectory.Trajectory {
	t.Helper()
	tr, err := trajectory.New(oid, []trajectory.Vertex{
		{X: 0, Y: 0, T: 0}, {X: 10, Y: 10, T: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPDFSpec(t *testing.T) {
	cases := []struct {
		name    string
		spec    PDFSpec
		wantErr bool
	}{
		{"uniform", PDFSpec{Kind: PDFUniform, R: 1}, false},
		{"gaussian", PDFSpec{Kind: PDFBoundedGaussian, R: 1, Sigma: 0.4}, false},
		{"epanechnikov", PDFSpec{Kind: PDFEpanechnikov, R: 2}, false},
		{"gaussian no sigma", PDFSpec{Kind: PDFBoundedGaussian, R: 1}, true},
		{"unknown kind", PDFSpec{Kind: "weird", R: 1}, true},
		{"zero radius", PDFSpec{Kind: PDFUniform, R: 0}, true},
		{"negative radius", PDFSpec{Kind: PDFUniform, R: -2}, true},
	}
	for _, c := range cases {
		p, err := c.spec.ToPDF()
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: expected error", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if p.Support() != c.spec.R {
			t.Errorf("%s: support = %g", c.name, p.Support())
		}
	}
}

func TestInsertGet(t *testing.T) {
	st := newTestStore(t)
	tr := traj(t, 1)
	if err := st.Insert(tr); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert(tr); !errors.Is(err, ErrDuplicateOID) {
		t.Errorf("duplicate insert: %v", err)
	}
	got, err := st.Get(1)
	if err != nil || got.OID != 1 {
		t.Fatalf("Get: %v %v", got, err)
	}
	if _, err := st.Get(9); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing Get: %v", err)
	}
	// Invalid trajectory rejected on insert.
	bad := &trajectory.Trajectory{OID: 3}
	if err := st.Insert(bad); err == nil {
		t.Error("invalid insert accepted")
	}
}

func TestOIDsAllTimeSpan(t *testing.T) {
	st := newTestStore(t)
	if _, _, ok := st.TimeSpan(); ok {
		t.Error("empty TimeSpan should report !ok")
	}
	for _, oid := range []int64{5, 1, 3} {
		tr, err := trajectory.New(oid, []trajectory.Vertex{
			{X: 0, Y: 0, T: float64(oid)}, {X: 1, Y: 1, T: float64(oid) + 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	oids := st.OIDs()
	if len(oids) != 3 || oids[0] != 1 || oids[1] != 3 || oids[2] != 5 {
		t.Errorf("OIDs = %v", oids)
	}
	all := st.All()
	if len(all) != 3 || all[0].OID != 1 || all[2].OID != 5 {
		t.Errorf("All order wrong")
	}
	tb, te, ok := st.TimeSpan()
	if !ok || tb != 1 || te != 15 {
		t.Errorf("TimeSpan = %g %g %v", tb, te, ok)
	}
}

func TestInsertAll(t *testing.T) {
	st := newTestStore(t)
	trs := []*trajectory.Trajectory{traj(t, 1), traj(t, 2), traj(t, 1)}
	err := st.InsertAll(trs)
	if !errors.Is(err, ErrDuplicateOID) {
		t.Errorf("InsertAll: %v", err)
	}
	if st.Len() != 2 {
		t.Errorf("partial insert Len = %d", st.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	st := newTestStore(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < 50; i++ {
				oid := base*1000 + i
				tr, err := trajectory.New(oid, []trajectory.Vertex{
					{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 1},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := st.Insert(tr); err != nil {
					t.Error(err)
					return
				}
				if _, err := st.Get(oid); err != nil {
					t.Error(err)
					return
				}
				st.Len()
				st.OIDs()
			}
		}(int64(g))
	}
	wg.Wait()
	if st.Len() != 400 {
		t.Errorf("Len = %d", st.Len())
	}
}

func TestPlanTrip(t *testing.T) {
	wp := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}, {X: 3, Y: 10}}
	tr, err := PlanTrip(7, wp, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.OID != 7 || len(tr.Verts) != 3 {
		t.Fatalf("trip = %+v", tr)
	}
	// First leg: distance 5, speed 2 → 2.5 time units.
	if tr.Verts[1].T != 102.5 {
		t.Errorf("leg 1 arrival = %g", tr.Verts[1].T)
	}
	// Second leg: distance 6 → 3 units.
	if tr.Verts[2].T != 105.5 {
		t.Errorf("leg 2 arrival = %g", tr.Verts[2].T)
	}
	// Repeated waypoints are skipped.
	tr, err = PlanTrip(8, []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 1, Y: 0}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Verts) != 2 {
		t.Errorf("dedup verts = %d", len(tr.Verts))
	}
	// Errors.
	if _, err := PlanTrip(9, wp[:1], 0, 1); !errors.Is(err, ErrNoWaypoints) {
		t.Errorf("few waypoints: %v", err)
	}
	if _, err := PlanTrip(9, wp, 0, 0); !errors.Is(err, ErrBadSpeed) {
		t.Errorf("zero speed: %v", err)
	}
}

func TestBuildIndex(t *testing.T) {
	st := newTestStore(t)
	trs, err := workload.Generate(workload.DefaultConfig(5), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	idx := st.BuildIndex(0)
	if idx.Len() != 100*6 { // 6 segments each
		t.Errorf("index entries = %d", idx.Len())
	}
	// Every trajectory should be found by a query covering the whole region
	// and time span.
	ids := idx.SearchRange(geom.AABB{MinX: -1, MinY: -1, MaxX: 41, MaxY: 41}, 0, 60)
	seen := map[int64]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	if len(seen) != 100 {
		t.Errorf("full-region search found %d distinct", len(seen))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	st := newTestStore(t)
	if err := st.InsertAll([]*trajectory.Trajectory{traj(t, 1), traj(t, 2)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Spec() != st.Spec() {
		t.Fatalf("round trip: len=%d spec=%+v", got.Len(), got.Spec())
	}
	a, _ := got.Get(1)
	b, _ := st.Get(1)
	for i := range a.Verts {
		if a.Verts[i] != b.Verts[i] {
			t.Errorf("vertex %d mismatch", i)
		}
	}
}

func TestJSONErrors(t *testing.T) {
	if _, err := LoadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	// Valid JSON, invalid trajectory.
	bad := `{"spec":{"kind":"uniform","r":1},"trajectories":[{"oid":1,"verts":[[0,0,0]]}]}`
	if _, err := LoadJSON(strings.NewReader(bad)); err == nil {
		t.Error("invalid trajectory accepted")
	}
	// Valid JSON, invalid spec.
	bad = `{"spec":{"kind":"nope","r":1},"trajectories":[]}`
	if _, err := LoadJSON(strings.NewReader(bad)); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	st, err := NewStore(PDFSpec{Kind: PDFBoundedGaussian, R: 1.5, Sigma: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	trs, err := workload.Generate(workload.DefaultConfig(9), 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 25 {
		t.Fatalf("len = %d", got.Len())
	}
	if got.Spec() != st.Spec() {
		t.Fatalf("spec = %+v", got.Spec())
	}
	a, _ := got.Get(trs[0].OID)
	for i := range a.Verts {
		if a.Verts[i] != trs[0].Verts[i] {
			t.Fatalf("vertex %d mismatch", i)
		}
	}
}

func TestBinaryCorruption(t *testing.T) {
	st := newTestStore(t)
	if err := st.Insert(traj(t, 1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Wrong magic.
	mangled := append([]byte{}, full...)
	mangled[0] = 'X'
	if _, err := LoadBinary(bytes.NewReader(mangled)); !errors.Is(err, ErrBadHeader) {
		t.Errorf("bad magic: %v", err)
	}
	// Every strict prefix errors without panicking.
	for cut := 0; cut < len(full); cut++ {
		if _, err := LoadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("prefix %d accepted", cut)
		}
	}
	// Empty stream.
	if _, err := LoadBinary(bytes.NewReader(nil)); !errors.Is(err, ErrBadHeader) {
		t.Errorf("empty: %v", err)
	}
}
