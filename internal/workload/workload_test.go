package workload

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig(1)
	if c.Region.MaxX-c.Region.MinX != 40 || c.Region.MaxY-c.Region.MinY != 40 {
		t.Errorf("region = %+v, want 40x40", c.Region)
	}
	if c.SpeedMinMPH != 15 || c.SpeedMaxMPH != 60 {
		t.Errorf("speeds = [%g, %g]", c.SpeedMinMPH, c.SpeedMaxMPH)
	}
	if c.DurationMin != 60 {
		t.Errorf("duration = %g", c.DurationMin)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateErrors(t *testing.T) {
	base := DefaultConfig(1)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"empty region", func(c *Config) { c.Region = geom.EmptyAABB() }},
		{"zero-area region", func(c *Config) { c.Region = geom.AABB{MinX: 1, MinY: 1, MaxX: 1, MaxY: 5} }},
		{"zero min speed", func(c *Config) { c.SpeedMinMPH = 0 }},
		{"inverted speeds", func(c *Config) { c.SpeedMaxMPH = c.SpeedMinMPH - 1 }},
		{"zero duration", func(c *Config) { c.DurationMin = 0 }},
		{"negative changes", func(c *Config) { c.VelocityChanges = -1 }},
	}
	for _, cse := range cases {
		c := base
		cse.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected error", cse.name)
		}
		if _, err := Generate(c, 1); err == nil {
			t.Errorf("%s: Generate should reject", cse.name)
		}
	}
	if _, err := Generate(base, -1); err == nil {
		t.Error("negative count should be rejected")
	}
}

func TestGenerateInvariants(t *testing.T) {
	c := DefaultConfig(42)
	trs, err := Generate(c, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 200 {
		t.Fatalf("len = %d", len(trs))
	}
	seen := map[int64]bool{}
	for _, tr := range trs {
		if seen[tr.OID] {
			t.Fatalf("duplicate OID %d", tr.OID)
		}
		seen[tr.OID] = true
		if err := tr.Validate(); err != nil {
			t.Fatalf("OID %d invalid: %v", tr.OID, err)
		}
		tb, te := tr.TimeSpan()
		if tb != 0 || math.Abs(te-60) > 1e-9 {
			t.Fatalf("OID %d span = [%g, %g]", tr.OID, tb, te)
		}
		if tr.NumSegments() != c.VelocityChanges+1 {
			t.Fatalf("OID %d segments = %d", tr.OID, tr.NumSegments())
		}
		for _, v := range tr.Verts {
			if c.Region.MinDistTo(v.Point()) > 0 {
				t.Fatalf("OID %d vertex outside region: %+v", tr.OID, v)
			}
		}
		// Segment speeds within [15, 60] mph (reflection can only shorten the
		// net displacement, so speeds are bounded above).
		for s := 0; s < tr.NumSegments(); s++ {
			seg, t0, t1 := tr.Segment(s)
			mph := seg.A.Dist(seg.B) / (t1 - t0) * 60
			if mph > 60+1e-6 {
				t.Fatalf("OID %d segment %d speed %g mph", tr.OID, s, mph)
			}
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(DefaultConfig(7), 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(7), 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].OID != b[i].OID || len(a[i].Verts) != len(b[i].Verts) {
			t.Fatalf("structure mismatch at %d", i)
		}
		for j := range a[i].Verts {
			if a[i].Verts[j] != b[i].Verts[j] {
				t.Fatalf("vertex %d/%d differs", i, j)
			}
		}
	}
	c, err := Generate(DefaultConfig(8), 50)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j := range c[0].Verts {
		if a[0].Verts[j] != c[0].Verts[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical first trajectory")
	}
}

func TestSingleSegmentConfig(t *testing.T) {
	trs, err := Generate(SingleSegmentConfig(3), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		if tr.NumSegments() != 1 {
			t.Fatalf("segments = %d", tr.NumSegments())
		}
	}
}

func TestReflect1D(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{12, 0, 10, 8},
		{-3, 0, 10, 3},
		{25, 0, 10, 5},  // two reflections: 25 -> fold at 20+5 -> 5
		{-12, 0, 10, 8}, // -12 mod 20 = 8
		{0, 0, 10, 0},
		{10, 0, 10, 10},
		{7, 7, 7, 7}, // degenerate interval
	}
	for _, c := range cases {
		if got := reflect1D(c.v, c.lo, c.hi); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("reflect1D(%g, %g, %g) = %g, want %g", c.v, c.lo, c.hi, got, c.want)
		}
	}
	// Always in range.
	for v := -100.0; v <= 100; v += 0.37 {
		got := reflect1D(v, 2, 11)
		if got < 2-1e-12 || got > 11+1e-12 {
			t.Fatalf("reflect1D(%g) = %g out of range", v, got)
		}
	}
}

func TestGenerateZero(t *testing.T) {
	trs, err := Generate(DefaultConfig(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 0 {
		t.Errorf("len = %d", len(trs))
	}
}

// The spatial spread should cover a substantial part of the region
// (sanity check on the uniform start-position draw).
func TestGenerateCoverage(t *testing.T) {
	trs, err := Generate(DefaultConfig(11), 500)
	if err != nil {
		t.Fatal(err)
	}
	box := geom.EmptyAABB()
	for _, tr := range trs {
		box = box.Union(trajectoryBox(tr))
	}
	if box.Area() < 0.8*40*40 {
		t.Errorf("coverage area = %g", box.Area())
	}
}

func trajectoryBox(tr *trajectory.Trajectory) geom.AABB { return tr.BoundingBox() }

func TestGenerateClustered(t *testing.T) {
	cfg := ClusterConfig{Base: DefaultConfig(3), Clusters: 3, Spread: 1.5}
	trs, err := GenerateClustered(cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 300 {
		t.Fatalf("len = %d", len(trs))
	}
	for _, tr := range trs {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, v := range tr.Verts {
			if cfg.Base.Region.MinDistTo(v.Point()) > 0 {
				t.Fatalf("vertex outside region: %+v", v)
			}
		}
	}
	// Clustering check: mean nearest-start-neighbor distance must be far
	// below the uniform workload's.
	meanNN := func(trs []*trajectory.Trajectory) float64 {
		var sum float64
		for i, a := range trs {
			best := math.Inf(1)
			for j, b := range trs {
				if i == j {
					continue
				}
				if d := a.Verts[0].Point().Dist(b.Verts[0].Point()); d < best {
					best = d
				}
			}
			sum += best
		}
		return sum / float64(len(trs))
	}
	uni, err := Generate(DefaultConfig(3), 300)
	if err != nil {
		t.Fatal(err)
	}
	if c, u := meanNN(trs), meanNN(uni); c >= u {
		t.Errorf("clustered mean NN %g not below uniform %g", c, u)
	}
	// Determinism.
	again, err := GenerateClustered(cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trs {
		for j := range trs[i].Verts {
			if trs[i].Verts[j] != again[i].Verts[j] {
				t.Fatal("not deterministic")
			}
		}
	}
}

func TestGenerateClusteredErrors(t *testing.T) {
	base := DefaultConfig(1)
	if _, err := GenerateClustered(ClusterConfig{Base: base, Clusters: 0, Spread: 1}, 5); err == nil {
		t.Error("zero clusters accepted")
	}
	if _, err := GenerateClustered(ClusterConfig{Base: base, Clusters: 2, Spread: 0}, 5); err == nil {
		t.Error("zero spread accepted")
	}
	if _, err := GenerateClustered(ClusterConfig{Base: base, Clusters: 2, Spread: 1}, -1); err == nil {
		t.Error("negative count accepted")
	}
	bad := base
	bad.DurationMin = 0
	if _, err := GenerateClustered(ClusterConfig{Base: bad, Clusters: 2, Spread: 1}, 5); err == nil {
		t.Error("invalid base accepted")
	}
}
