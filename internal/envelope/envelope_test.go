package envelope

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/numeric"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// lineTr builds a single-segment trajectory from (x0, y0) at t=0 to
// (x1, y1) at t=60.
func lineTr(t *testing.T, oid int64, x0, y0, x1, y1 float64) *trajectory.Trajectory {
	t.Helper()
	tr, err := trajectory.New(oid, []trajectory.Vertex{
		{X: x0, Y: y0, T: 0}, {X: x1, Y: y1, T: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// stillTr is a stationary "trajectory" (tiny drift keeps validation happy
// with distinct endpoints; the drift is zero here — same point twice is
// fine since only times must increase).
func stillTr(t *testing.T, oid int64, x, y float64) *trajectory.Trajectory {
	t.Helper()
	tr, err := trajectory.New(oid, []trajectory.Vertex{
		{X: x, Y: y, T: 0}, {X: x, Y: y, T: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewDistanceFuncErrors(t *testing.T) {
	q := stillTr(t, 100, 0, 0)
	a := lineTr(t, 1, 0, 0, 10, 0)
	if _, err := NewDistanceFunc(1, a, q, 5, 5); !errors.Is(err, ErrEmptyWindow) {
		t.Errorf("empty window: %v", err)
	}
	if _, err := NewDistanceFunc(1, a, q, -5, 60); !errors.Is(err, ErrBadWindow) {
		t.Errorf("window before span: %v", err)
	}
	if _, err := NewDistanceFunc(1, a, q, 0, 70); !errors.Is(err, ErrBadWindow) {
		t.Errorf("window after span: %v", err)
	}
}

func TestDistanceFuncValues(t *testing.T) {
	// Object moves from (10, 0) to (-10, 0); query stays at origin.
	// Distance is |10 − (t/3)| i.e. linear to 0 at t=30 then back out.
	q := stillTr(t, 100, 0, 0)
	a := lineTr(t, 1, 10, 0, -10, 0)
	f, err := NewDistanceFunc(1, a, q, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ tm, want float64 }{
		{0, 10}, {15, 5}, {30, 0}, {45, 5}, {60, 10},
	}
	for _, c := range cases {
		// Near a true zero of the distance, sqrt amplifies the quadratic's
		// float cancellation (~1e-14) to ~1e-7; tolerate 1e-6.
		if got := f.Value(c.tm); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("Value(%g) = %g, want %g", c.tm, got, c.want)
		}
	}
	if t0, t1 := f.Pieces[0].T0, f.Pieces[len(f.Pieces)-1].T1; t0 != 0 || t1 != 60 {
		t.Errorf("Span = %g, %g", t0, t1)
	}
}

func TestDistanceFuncAgainstDirectComputation(t *testing.T) {
	// Randomized multi-segment cross-check: f.Value(t) must equal the
	// distance of the interpolated positions for any t.
	rng := rand.New(rand.NewSource(12))
	trs, err := workload.Generate(workload.DefaultConfig(12), 30)
	if err != nil {
		t.Fatal(err)
	}
	q := trs[0]
	for _, tr := range trs[1:] {
		f, err := NewDistanceFunc(tr.OID, tr, q, 0, 60)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 50; k++ {
			tm := rng.Float64() * 60
			want := tr.At(tm).Dist(q.At(tm))
			if got := f.Value(tm); math.Abs(got-want) > 1e-9 {
				t.Fatalf("oid %d t=%g: %g vs %g", tr.OID, tm, got, want)
			}
		}
		if len(f.Pieces) != 11 { // 6 segments each → up to 5+5 interior cuts + ends
			// Piece count depends on vertex alignment; synchronous changes
			// collapse to 6 pieces. Just sanity-bound it.
			if len(f.Pieces) < 6 || len(f.Pieces) > 12 {
				t.Fatalf("oid %d: %d pieces", tr.OID, len(f.Pieces))
			}
		}
	}
}

func TestIntersections(t *testing.T) {
	q := stillTr(t, 100, 0, 0)
	// f: starts at 10, reaches 0 at t=30 (distance V-shape).
	f, err := NewDistanceFunc(1, lineTr(t, 1, 10, 0, -10, 0), q, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	// g: constant distance 5.
	g, err := NewDistanceFunc(2, stillTr(t, 2, 5, 0), q, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	ts := Intersections(f, g, 0, 60)
	if len(ts) != 2 || math.Abs(ts[0]-15) > 1e-9 || math.Abs(ts[1]-45) > 1e-9 {
		t.Fatalf("Intersections = %v, want [15, 45]", ts)
	}
	// Identical functions: no critical points.
	if ts := Intersections(f, f, 0, 60); len(ts) != 0 {
		t.Errorf("self intersections = %v", ts)
	}
	// Restricted window.
	ts = Intersections(f, g, 20, 60)
	if len(ts) != 1 || math.Abs(ts[0]-45) > 1e-9 {
		t.Errorf("windowed = %v", ts)
	}
}

func TestEnv2(t *testing.T) {
	q := stillTr(t, 100, 0, 0)
	f, _ := NewDistanceFunc(1, lineTr(t, 1, 10, 0, -10, 0), q, 0, 60)
	g, _ := NewDistanceFunc(2, stillTr(t, 2, 5, 0), q, 0, 60)
	ivs := Env2(f, g, 0, 60)
	// g wins on [0,15], f on [15,45], g on [45,60].
	want := []Interval{{2, 0, 15}, {1, 15, 45}, {2, 45, 60}}
	if len(ivs) != len(want) {
		t.Fatalf("Env2 = %v", ivs)
	}
	for i := range want {
		if ivs[i].ID != want[i].ID ||
			math.Abs(ivs[i].T0-want[i].T0) > 1e-9 ||
			math.Abs(ivs[i].T1-want[i].T1) > 1e-9 {
			t.Errorf("interval %d = %+v, want %+v", i, ivs[i], want[i])
		}
	}
	// Degenerate window.
	if ivs := Env2(f, g, 5, 5); ivs != nil {
		t.Errorf("degenerate Env2 = %v", ivs)
	}
	// Identical inputs: one merged interval.
	ivs = Env2(f, f, 0, 60)
	if len(ivs) != 1 || ivs[0].ID != 1 {
		t.Errorf("self Env2 = %v", ivs)
	}
}

// envelopeOracle evaluates min_i f_i(t) directly.
func envelopeOracle(fns []*DistanceFunc, t float64) (int64, float64) {
	best := int64(-1)
	bv := math.Inf(1)
	for _, f := range fns {
		if v := f.Value(t); v < bv {
			bv = v
			best = f.ID
		}
	}
	return best, bv
}

func buildRandomFuncs(t *testing.T, seed int64, n int, segments bool) []*DistanceFunc {
	t.Helper()
	cfg := workload.SingleSegmentConfig(seed)
	if segments {
		cfg = workload.DefaultConfig(seed)
	}
	trs, err := workload.Generate(cfg, n+1)
	if err != nil {
		t.Fatal(err)
	}
	fns, err := BuildDistanceFuncs(trs, trs[0], 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	return fns
}

func TestLowerEnvelopeMatchesOracle(t *testing.T) {
	for _, segs := range []bool{false, true} {
		for _, n := range []int{1, 2, 3, 10, 60} {
			fns := buildRandomFuncs(t, int64(n)*7+3, n, segs)
			env, err := LowerEnvelope(fns, 0, 60)
			if err != nil {
				t.Fatal(err)
			}
			// Dense evaluation: envelope value equals the oracle minimum.
			for _, tm := range numeric.Linspace(0.001, 59.999, 997) {
				_, want := envelopeOracle(fns, tm)
				got := env.ValueAt(tm)
				if math.Abs(got-want) > 1e-6 {
					t.Fatalf("segs=%v n=%d t=%g: env=%g oracle=%g", segs, n, tm, got, want)
				}
			}
			// Structural checks: contiguity and window coverage.
			if env.Intervals[0].T0 != 0 || env.Intervals[len(env.Intervals)-1].T1 != 60 {
				t.Fatalf("coverage: %+v", env.Intervals)
			}
			for i := 1; i < len(env.Intervals); i++ {
				if math.Abs(env.Intervals[i].T0-env.Intervals[i-1].T1) > 1e-9 {
					t.Fatalf("gap at %d", i)
				}
				if env.Intervals[i].ID == env.Intervals[i-1].ID {
					t.Fatalf("unmerged adjacent intervals at %d", i)
				}
			}
		}
	}
}

func TestLowerEnvelopeDSBound(t *testing.T) {
	// Davenport-Schinzel: for N single-segment hyperbolae the envelope has
	// at most 2N − 1 intervals.
	for _, n := range []int{2, 10, 50, 200} {
		fns := buildRandomFuncs(t, int64(n), n, false)
		env, err := LowerEnvelope(fns, 0, 60)
		if err != nil {
			t.Fatal(err)
		}
		if env.Size() > 2*n-1 {
			t.Errorf("n=%d: envelope size %d exceeds 2N-1", n, env.Size())
		}
	}
}

func TestNaiveEqualsDivideAndConquer(t *testing.T) {
	for _, segs := range []bool{false, true} {
		for _, n := range []int{1, 2, 5, 40, 150} {
			fns := buildRandomFuncs(t, int64(n)*13+1, n, segs)
			dc, err := LowerEnvelope(fns, 0, 60)
			if err != nil {
				t.Fatal(err)
			}
			nv, err := NaiveLowerEnvelope(fns, 0, 60)
			if err != nil {
				t.Fatal(err)
			}
			if dc.Size() != nv.Size() {
				t.Fatalf("segs=%v n=%d: sizes %d vs %d\ndc=%v\nnv=%v",
					segs, n, dc.Size(), nv.Size(), dc.Intervals, nv.Intervals)
			}
			for i := range dc.Intervals {
				a, b := dc.Intervals[i], nv.Intervals[i]
				if a.ID != b.ID || math.Abs(a.T0-b.T0) > 1e-6 || math.Abs(a.T1-b.T1) > 1e-6 {
					t.Fatalf("segs=%v n=%d: interval %d: %+v vs %+v", segs, n, i, a, b)
				}
			}
		}
	}
}

func TestEnvelopeErrors(t *testing.T) {
	if _, err := LowerEnvelope(nil, 0, 60); !errors.Is(err, ErrNoFunctions) {
		t.Errorf("no functions: %v", err)
	}
	if _, err := NaiveLowerEnvelope(nil, 0, 60); !errors.Is(err, ErrNoFunctions) {
		t.Errorf("naive no functions: %v", err)
	}
	fns := buildRandomFuncs(t, 5, 3, false)
	if _, err := LowerEnvelope(fns, 10, 10); !errors.Is(err, ErrEmptyWindow) {
		t.Errorf("empty window: %v", err)
	}
	if _, err := NaiveLowerEnvelope(fns, 10, 10); !errors.Is(err, ErrEmptyWindow) {
		t.Errorf("naive empty window: %v", err)
	}
}

func TestMinGap(t *testing.T) {
	q := stillTr(t, 100, 0, 0)
	near, _ := NewDistanceFunc(1, stillTr(t, 1, 2, 0), q, 0, 60) // d = 2
	mid, _ := NewDistanceFunc(2, stillTr(t, 2, 5, 0), q, 0, 60)  // d = 5
	far, _ := NewDistanceFunc(3, stillTr(t, 3, 11, 0), q, 0, 60) // d = 11
	env, err := LowerEnvelope([]*DistanceFunc{near}, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if g := MinGap(mid, env); math.Abs(g-3) > 1e-6 {
		t.Errorf("MinGap(mid) = %g, want 3", g)
	}
	if g := MinGap(far, env); math.Abs(g-9) > 1e-6 {
		t.Errorf("MinGap(far) = %g, want 9", g)
	}
	if g := MinGap(near, env); math.Abs(g) > 1e-9 {
		t.Errorf("MinGap(self) = %g, want 0", g)
	}
	// A function dipping below the envelope has negative gap.
	dip, _ := NewDistanceFunc(4, lineTr(t, 4, 10, 0, -10, 0), q, 0, 60)
	if g := MinGap(dip, env); math.Abs(g-(-2)) > 1e-6 {
		t.Errorf("MinGap(dip) = %g, want -2", g)
	}
}

func TestPrune(t *testing.T) {
	q := stillTr(t, 100, 0, 0)
	near, _ := NewDistanceFunc(1, stillTr(t, 1, 2, 0), q, 0, 60)
	mid, _ := NewDistanceFunc(2, stillTr(t, 2, 5, 0), q, 0, 60)
	far, _ := NewDistanceFunc(3, stillTr(t, 3, 11, 0), q, 0, 60)
	env, err := LowerEnvelope([]*DistanceFunc{near, mid, far}, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Envelope is `near` (d=2) everywhere. Width 4r with r=1 keeps mid
	// (gap 3 <= 4) and prunes far (gap 9 > 4).
	kept, pruned := Prune([]*DistanceFunc{near, mid, far}, env, 4)
	if len(kept) != 2 || len(pruned) != 1 || pruned[0].ID != 3 {
		t.Errorf("kept=%v pruned=%v", ids(kept), ids(pruned))
	}
	// Width 12 keeps everything.
	kept, pruned = Prune([]*DistanceFunc{near, mid, far}, env, 12)
	if len(kept) != 3 || len(pruned) != 0 {
		t.Errorf("wide: kept=%v pruned=%v", ids(kept), ids(pruned))
	}
}

func ids(fns []*DistanceFunc) []int64 {
	out := make([]int64, len(fns))
	for i, f := range fns {
		out[i] = f.ID
	}
	return out
}

// TestPruneSoundness: pruned functions never get within `width` of the
// envelope on a dense grid (property of the pruning criterion).
func TestPruneSoundness(t *testing.T) {
	fns := buildRandomFuncs(t, 77, 120, true)
	env, err := LowerEnvelope(fns, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	width := 4 * 0.5 // r = 0.5 miles
	_, pruned := Prune(fns, env, width)
	for _, f := range pruned {
		for _, tm := range numeric.Linspace(0, 60, 601) {
			if f.Value(tm)-env.ValueAt(tm) <= width-1e-6 {
				t.Fatalf("pruned oid %d enters zone at t=%g", f.ID, tm)
			}
		}
	}
}

func TestBelowIntervals(t *testing.T) {
	q := stillTr(t, 100, 0, 0)
	base, _ := NewDistanceFunc(1, stillTr(t, 1, 2, 0), q, 0, 60) // envelope at 2
	env, err := LowerEnvelope([]*DistanceFunc{base}, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	// V-shaped function dips to 0 at t=30: below (2 + delta) between the
	// crossing times of |10 − t/3| = 2 + delta.
	dip, _ := NewDistanceFunc(4, lineTr(t, 4, 10, 0, -10, 0), q, 0, 60)
	delta := 1.0 // threshold distance 3 → crossings at t = 21 and t = 39
	ivs := BelowIntervals(dip, env, delta)
	if len(ivs) != 1 {
		t.Fatalf("BelowIntervals = %v", ivs)
	}
	if math.Abs(ivs[0].T0-21) > 1e-6 || math.Abs(ivs[0].T1-39) > 1e-6 {
		t.Errorf("interval = %+v, want [21, 39]", ivs[0])
	}
	if math.Abs(TotalLength(ivs)-18) > 1e-6 {
		t.Errorf("TotalLength = %g", TotalLength(ivs))
	}
	// Always below: whole window.
	ivs = BelowIntervals(base, env, 0.5)
	if len(ivs) != 1 || ivs[0].T0 != 0 || ivs[0].T1 != 60 {
		t.Errorf("always-below = %v", ivs)
	}
	// Never below.
	far, _ := NewDistanceFunc(3, stillTr(t, 3, 30, 0), q, 0, 60)
	if ivs := BelowIntervals(far, env, 1); len(ivs) != 0 {
		t.Errorf("never-below = %v", ivs)
	}
}

// TestBelowIntervalsAgainstSampling: property check on random workloads.
func TestBelowIntervalsAgainstSampling(t *testing.T) {
	fns := buildRandomFuncs(t, 31, 40, true)
	env, err := LowerEnvelope(fns, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	delta := 2.0
	for _, f := range fns[:10] {
		ivs := BelowIntervals(f, env, delta)
		inside := func(tm float64) bool {
			for _, iv := range ivs {
				if tm >= iv.T0-1e-6 && tm <= iv.T1+1e-6 {
					return true
				}
			}
			return false
		}
		for _, tm := range numeric.Linspace(0.01, 59.99, 599) {
			below := f.Value(tm) <= env.ValueAt(tm)+delta
			if below != inside(tm) {
				// Tolerate disagreement within a hair of a boundary.
				margin := math.Abs(f.Value(tm) - env.ValueAt(tm) - delta)
				if margin > 1e-4 {
					t.Fatalf("oid %d t=%g: sampled below=%v interval=%v (margin %g)",
						f.ID, tm, below, inside(tm), margin)
				}
			}
		}
	}
}

func TestEnvelopeAccessors(t *testing.T) {
	fns := buildRandomFuncs(t, 9, 10, false)
	env, err := LowerEnvelope(fns, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got := env.IDAt(30); got != env.Intervals[env.at(30)].ID {
		t.Errorf("IDAt mismatch")
	}
	if env.Func(fns[0].ID) != fns[0] {
		t.Error("Func lookup failed")
	}
}
