package trajectory

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func mustNew(t *testing.T, oid int64, verts []Vertex) *Trajectory {
	t.Helper()
	tr, err := New(oid, verts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func lineTraj(t *testing.T) *Trajectory {
	return mustNew(t, 1, []Vertex{{0, 0, 0}, {10, 0, 10}, {10, 5, 15}})
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name  string
		verts []Vertex
		want  error
	}{
		{"ok", []Vertex{{0, 0, 0}, {1, 1, 1}}, nil},
		{"too few", []Vertex{{0, 0, 0}}, ErrTooFewVertices},
		{"empty", nil, ErrTooFewVertices},
		{"equal times", []Vertex{{0, 0, 0}, {1, 1, 0}}, ErrNonIncreasing},
		{"decreasing", []Vertex{{0, 0, 5}, {1, 1, 1}}, ErrNonIncreasing},
		{"nan", []Vertex{{math.NaN(), 0, 0}, {1, 1, 1}}, ErrNonFinite},
		{"inf time", []Vertex{{0, 0, 0}, {1, 1, math.Inf(1)}}, ErrNonFinite},
	}
	for _, c := range cases {
		_, err := New(9, c.verts)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestAtInterpolation(t *testing.T) {
	tr := lineTraj(t)
	cases := []struct {
		t    float64
		want geom.Point
	}{
		{-5, geom.Point{X: 0, Y: 0}}, // clamp before
		{0, geom.Point{X: 0, Y: 0}},
		{5, geom.Point{X: 5, Y: 0}},
		{10, geom.Point{X: 10, Y: 0}},
		{12.5, geom.Point{X: 10, Y: 2.5}},
		{15, geom.Point{X: 10, Y: 5}},
		{99, geom.Point{X: 10, Y: 5}}, // clamp after
	}
	for _, c := range cases {
		got := tr.At(c.t)
		if got.Dist(c.want) > 1e-12 {
			t.Errorf("At(%g) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestVelocityAndSpeed(t *testing.T) {
	tr := lineTraj(t)
	if v := tr.VelocityAt(5); v != (geom.Vec{X: 1, Y: 0}) {
		t.Errorf("VelocityAt(5) = %v", v)
	}
	if v := tr.VelocityAt(12); v != (geom.Vec{X: 0, Y: 1}) {
		t.Errorf("VelocityAt(12) = %v", v)
	}
	// At a vertex: following segment.
	if v := tr.VelocityAt(10); v != (geom.Vec{X: 0, Y: 1}) {
		t.Errorf("VelocityAt(10) = %v", v)
	}
	// Final instant: last segment.
	if v := tr.VelocityAt(15); v != (geom.Vec{X: 0, Y: 1}) {
		t.Errorf("VelocityAt(15) = %v", v)
	}
	// Outside.
	if v := tr.VelocityAt(-1); v != (geom.Vec{}) {
		t.Errorf("VelocityAt(-1) = %v", v)
	}
	if v := tr.VelocityAt(16); v != (geom.Vec{}) {
		t.Errorf("VelocityAt(16) = %v", v)
	}
}

func TestTimeSpanSegments(t *testing.T) {
	tr := lineTraj(t)
	tb, te := tr.TimeSpan()
	if tb != 0 || te != 15 {
		t.Errorf("TimeSpan = %g, %g", tb, te)
	}
	if tr.NumSegments() != 2 {
		t.Errorf("NumSegments = %d", tr.NumSegments())
	}
	seg, t0, t1 := tr.Segment(1)
	if t0 != 10 || t1 != 15 || seg.A != (geom.Point{X: 10, Y: 0}) {
		t.Errorf("Segment(1) = %v %g %g", seg, t0, t1)
	}
}

func TestVertexTimesWithin(t *testing.T) {
	tr := lineTraj(t)
	if got := tr.VertexTimesWithin(0, 15); len(got) != 1 || got[0] != 10 {
		t.Errorf("VertexTimesWithin(0,15) = %v", got)
	}
	if got := tr.VertexTimesWithin(10, 15); got != nil {
		t.Errorf("exclusive bounds: %v", got)
	}
	if got := tr.VertexTimesWithin(-5, 50); len(got) != 3 {
		t.Errorf("all inside: %v", got)
	}
}

func TestBoundingBoxLength(t *testing.T) {
	tr := lineTraj(t)
	b := tr.BoundingBox()
	if b.MinX != 0 || b.MaxX != 10 || b.MinY != 0 || b.MaxY != 5 {
		t.Errorf("BoundingBox = %+v", b)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := lineTraj(t)
	buf := bytes.NewBuffer(tr.AppendBinary(nil))
	got, err := ReadBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.OID != tr.OID || len(got.Verts) != len(tr.Verts) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range got.Verts {
		if got.Verts[i] != tr.Verts[i] {
			t.Errorf("vertex %d: %v != %v", i, got.Verts[i], tr.Verts[i])
		}
	}
}

func TestBinaryTruncation(t *testing.T) {
	tr := lineTraj(t)
	buf := bytes.NewBuffer(tr.AppendBinary(nil))
	full := buf.Bytes()
	// EOF at a clean boundary reports io.EOF (stream end).
	if _, err := ReadBinary(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("clean EOF: %v", err)
	}
	// Every strict prefix must error, never panic.
	for cut := 1; cut < len(full); cut++ {
		_, err := ReadBinary(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("prefix %d: expected error", cut)
		}
	}
	// Implausible count guard.
	bad := make([]byte, 12)
	for i := 8; i < 12; i++ {
		bad[i] = 0xFF
	}
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("expected error for implausible count")
	}
}

// Property: binary round trip is identity for random valid trajectories.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		verts := make([]Vertex, n)
		tm := rng.Float64()
		for i := range verts {
			tm += 0.1 + rng.Float64()
			verts[i] = Vertex{X: rng.NormFloat64() * 100, Y: rng.NormFloat64() * 100, T: tm}
		}
		tr, err := New(rng.Int63(), verts)
		if err != nil {
			return false
		}
		got, err := ReadBinary(bytes.NewReader(tr.AppendBinary(nil)))
		if err != nil || got.OID != tr.OID || len(got.Verts) != n {
			return false
		}
		for i := range got.Verts {
			if got.Verts[i] != tr.Verts[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(55))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: At() lies on the segment between bracketing vertices and is
// continuous at vertices.
func TestAtContinuityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		verts := make([]Vertex, n)
		tm := 0.0
		for i := range verts {
			tm += 0.5 + rng.Float64()
			verts[i] = Vertex{X: rng.Float64() * 40, Y: rng.Float64() * 40, T: tm}
		}
		tr, err := New(1, verts)
		if err != nil {
			return false
		}
		for i, v := range verts {
			if tr.At(v.T).Dist(v.Point()) > 1e-9 {
				return false
			}
			if i > 0 {
				mid := 0.5 * (verts[i-1].T + v.T)
				p := tr.At(mid)
				seg := geom.Segment{A: verts[i-1].Point(), B: v.Point()}
				if p.Dist(seg.At(seg.ClosestParam(p))) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(66))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
