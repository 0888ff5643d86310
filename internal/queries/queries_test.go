package queries

import (
	"errors"
	"math"
	"testing"

	"repro/internal/envelope"
	"repro/internal/numeric"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

func still(t *testing.T, oid int64, x, y float64) *trajectory.Trajectory {
	t.Helper()
	tr, err := trajectory.New(oid, []trajectory.Vertex{
		{X: x, Y: y, T: 0}, {X: x, Y: y, T: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mover(t *testing.T, oid int64, x0, y0, x1, y1 float64) *trajectory.Trajectory {
	t.Helper()
	tr, err := trajectory.New(oid, []trajectory.Vertex{
		{X: x0, Y: y0, T: 0}, {X: x1, Y: y1, T: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// staticScene: query at origin, r = 0.5 (zone width 2).
//
//	oid 1: d = 2   (level 1, always possible)
//	oid 2: d = 3.5 (within zone always: gap 1.5)
//	oid 3: d = 9   (never possible: gap 7)
//	oid 4: sweeps past at closest distance 3 at t=30 (inside the zone only
//	       around the middle of the window)
func staticScene(t *testing.T) ([]*trajectory.Trajectory, *trajectory.Trajectory) {
	t.Helper()
	q := still(t, 100, 0, 0)
	return []*trajectory.Trajectory{
		q,
		still(t, 1, 2, 0),
		still(t, 2, 3.5, 0),
		still(t, 3, 9, 0),
		mover(t, 4, 10, 3, -10, 3),
	}, q
}

func newProc(t *testing.T) *Processor {
	t.Helper()
	trs, q := staticScene(t)
	p, err := NewProcessor(trs, q, 0, 60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProcessorErrors(t *testing.T) {
	trs, q := staticScene(t)
	if _, err := NewProcessor(trs, q, 0, 60, 0); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := NewProcessor([]*trajectory.Trajectory{q}, q, 0, 60, 0.5); err == nil {
		t.Error("no functions accepted")
	}
	if _, err := NewProcessor(trs, q, 30, 30, 0.5); err == nil {
		t.Error("empty window accepted")
	}
}

func TestCategory1(t *testing.T) {
	p := newProc(t)
	cases := []struct {
		oid        int64
		uq11, uq12 bool
		uq13half   bool
	}{
		{1, true, true, true},
		{2, true, true, true},
		{3, false, false, false},
		{4, true, false, false}, // possible only in a window around t=30
	}
	for _, c := range cases {
		if got, err := p.UQ11(c.oid); err != nil || got != c.uq11 {
			t.Errorf("UQ11(%d) = %v, %v; want %v", c.oid, got, err, c.uq11)
		}
		if got, err := p.UQ12(c.oid); err != nil || got != c.uq12 {
			t.Errorf("UQ12(%d) = %v, %v; want %v", c.oid, got, err, c.uq12)
		}
		if got, err := p.UQ13(c.oid, 0.5); err != nil || got != c.uq13half {
			t.Errorf("UQ13(%d, 0.5) = %v, %v; want %v", c.oid, got, err, c.uq13half)
		}
	}
	// oid 4: distance |10 − t/3| (x-offset) combined with y=5 … the zone
	// test uses the envelope (oid 1 at distance 2): possible while
	// d4(t) <= 4. Verify UQ13 with the exact measurable fraction.
	ivs, err := p.PossibleNNIntervals(4)
	if err != nil {
		t.Fatal(err)
	}
	frac := envelope.TotalLength(ivs) / 60
	if frac <= 0 || frac >= 1 {
		t.Fatalf("oid 4 fraction = %g", frac)
	}
	if got, _ := p.UQ13(4, frac-0.01); !got {
		t.Error("UQ13 just below actual fraction should hold")
	}
	if got, _ := p.UQ13(4, frac+0.01); got {
		t.Error("UQ13 just above actual fraction should fail")
	}
	// Errors.
	if _, err := p.UQ11(777); !errors.Is(err, ErrUnknownOID) {
		t.Errorf("unknown oid: %v", err)
	}
	if _, err := p.UQ13(1, 1.5); !errors.Is(err, ErrBadFrac) {
		t.Errorf("bad frac: %v", err)
	}
	if _, err := p.UQ13(1, -0.1); !errors.Is(err, ErrBadFrac) {
		t.Errorf("neg frac: %v", err)
	}
}

func TestCategory2(t *testing.T) {
	p := newProc(t)
	// oid 3 (d=9) cannot be rank-1 or rank-2... level-2 envelope is oid 2
	// at 3.5 most of the time, zone top 5.5 < 9; level 3 is oid 4's swing
	// or oid 3 — at level 3 the envelope rises enough near t=30.
	if got, _ := p.UQ21(3, 1); got {
		t.Error("oid 3 cannot be rank 1")
	}
	if got, _ := p.UQ21(3, 2); got {
		t.Error("oid 3 cannot be rank <= 2")
	}
	if got, _ := p.UQ21(3, 3); !got {
		t.Error("oid 3 should be possible at rank 3 (level-3 envelope includes d=9 segments)")
	}
	if got, _ := p.UQ22(1, 1); !got {
		t.Error("oid 1 is always possible at rank 1")
	}
	if got, _ := p.UQ22(4, 1); got {
		t.Error("oid 4 is not always possible at rank 1")
	}
	if got, _ := p.UQ23(2, 2, 0.9); !got {
		t.Error("oid 2 should be rank<=2-possible >= 90% of time")
	}
	// Errors.
	if _, err := p.UQ21(1, 0); !errors.Is(err, ErrBadRank) {
		t.Errorf("bad rank: %v", err)
	}
	if _, err := p.UQ23(1, 1, 2); !errors.Is(err, ErrBadFrac) {
		t.Errorf("bad frac: %v", err)
	}
	if _, err := p.UQ21(777, 1); err == nil {
		t.Error("unknown oid accepted")
	}
}

func TestCategory3(t *testing.T) {
	p := newProc(t)
	if got := p.UQ31(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Errorf("UQ31 = %v", got)
	}
	if got := p.UQ32(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("UQ32 = %v", got)
	}
	got, err := p.UQ43(1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("UQ33(0.9) = %v", got)
	}
	if _, err := p.UQ43(1, -1); !errors.Is(err, ErrBadFrac) {
		t.Errorf("bad frac: %v", err)
	}
}

func TestCategory4(t *testing.T) {
	p := newProc(t)
	got, err := p.UQ41(2)
	if err != nil {
		t.Fatal(err)
	}
	// At rank <= 2, oids 1, 2 and 4 qualify somewhere; oid 3 does not.
	want := []int64{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("UQ41(2) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UQ41(2) = %v", got)
		}
	}
	// Rank 4: everything qualifies somewhere.
	got, err = p.UQ41(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("UQ41(4) = %v", got)
	}
	g2, err := p.UQ42(2)
	if err != nil {
		t.Fatal(err)
	}
	// oids 1 and 2 are within the rank-2 zone all the time.
	if len(g2) != 2 || g2[0] != 1 || g2[1] != 2 {
		t.Errorf("UQ42(2) = %v", g2)
	}
	g3, err := p.UQ43(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(g3) < 2 {
		t.Errorf("UQ43(2, 0.5) = %v", g3)
	}
	if _, err := p.UQ41(0); !errors.Is(err, ErrBadRank) {
		t.Errorf("bad rank: %v", err)
	}
	if _, err := p.UQ43(1, 9); !errors.Is(err, ErrBadFrac) {
		t.Errorf("bad frac: %v", err)
	}
}

func TestFixedTime(t *testing.T) {
	p := newProc(t)
	// At t=30, oid 4 is at (0, 3) → d=3; envelope = 2 (oid 1); zone top 4.
	// The instant set: oids 1 (d=2), 2 (d=3.5), 4 (d=3) qualify; 3 (d=9)
	// does not.
	got, _ := p.PossibleRankKAt(30, 1)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Errorf("PossibleNNAt(30) = %v", got)
	}
	if ok, _ := p.IsPossibleNNAt(1, 30); !ok {
		t.Error("oid 1 should be possible at 30")
	}
	if ok, _ := p.IsPossibleNNAt(4, 30); !ok {
		t.Error("oid 4 at d=3 should be possible at 30")
	}
	if ok, _ := p.IsPossibleNNAt(3, 30); ok {
		t.Error("oid 3 at d=9 should not be possible at 30")
	}
	if ok, _ := p.IsPossibleNNAt(4, 1); ok {
		t.Error("oid 4 far away at t=1 should not be possible")
	}
	if _, err := p.IsPossibleNNAt(777, 30); err == nil {
		t.Error("unknown oid accepted")
	}
}

// TestOid4Consistency cross-checks oid 4's zone membership against its
// sampled minimal distance: membership intervals must be nonempty exactly
// when the function dips below the zone top (envelope 2 + width 2 = 4).
func TestOid4Consistency(t *testing.T) {
	p := newProc(t)
	ivs, err := p.PossibleNNIntervals(4)
	if err != nil {
		t.Fatal(err)
	}
	f, _, _ := p.lookup(4)
	minD := math.Inf(1)
	for _, tm := range numeric.Linspace(0, 60, 601) {
		if v := f.Value(tm); v < minD {
			minD = v
		}
	}
	if minD < 4 && len(ivs) == 0 {
		t.Errorf("min distance %g < 4 but no intervals", minD)
	}
	if minD > 4 && len(ivs) > 0 {
		t.Errorf("min distance %g > 4 but intervals %v", minD, ivs)
	}
}

// TestProcessorVsNaive: the envelope-based and naive processors agree on
// random workloads for UQ11/UQ12/UQ13.
func TestProcessorVsNaive(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(77), 40)
	if err != nil {
		t.Fatal(err)
	}
	q := trs[0]
	p, err := NewProcessor(trs, q, 0, 60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	np, err := NewNaiveProcessor(trs, q, 0, 60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs[1:] {
		oid := tr.OID
		a1, err := p.UQ11(oid)
		if err != nil {
			t.Fatal(err)
		}
		b1, err := np.UQ11(oid)
		if err != nil {
			t.Fatal(err)
		}
		if a1 != b1 {
			t.Errorf("UQ11(%d): %v vs naive %v", oid, a1, b1)
		}
		a2, _ := p.UQ12(oid)
		b2, _ := np.UQ12(oid)
		if a2 != b2 {
			t.Errorf("UQ12(%d): %v vs naive %v", oid, a2, b2)
		}
		a3, _ := p.UQ13(oid, 0.5)
		b3, _ := np.UQ13(oid, 0.5)
		if a3 != b3 {
			t.Errorf("UQ13(%d): %v vs naive %v", oid, a3, b3)
		}
	}
	if _, err := np.UQ11(999); !errors.Is(err, ErrUnknownOID) {
		t.Errorf("naive unknown oid: %v", err)
	}
	if _, err := np.UQ13(trs[1].OID, 7); !errors.Is(err, ErrBadFrac) {
		t.Errorf("naive bad frac: %v", err)
	}
}

// TestFixedTimeMatchesSampledZone: fixed-time membership at tf equals the
// continuous intervals' membership at tf.
func TestFixedTimeMatchesSampledZone(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(5), 30)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcessor(trs, trs[0], 0, 60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range []float64{3.7, 21, 44.4} {
		ids, _ := p.PossibleRankKAt(tf, 1)
		inSet := map[int64]bool{}
		for _, id := range ids {
			inSet[id] = true
		}
		for _, tr := range trs[1:] {
			ivs, err := p.PossibleNNIntervals(tr.OID)
			if err != nil {
				t.Fatal(err)
			}
			inIv := false
			for _, iv := range ivs {
				if tf >= iv.T0-1e-6 && tf <= iv.T1+1e-6 {
					inIv = true
				}
			}
			if inIv != inSet[tr.OID] {
				// Tolerate boundary-hair disagreements.
				f, _, _ := p.lookup(tr.OID)
				margin := math.Abs(f.Value(tf) - p.Envelope().ValueAt(tf) - 2)
				if margin > 1e-4 {
					t.Errorf("oid %d tf=%g: interval=%v fixed=%v", tr.OID, tf, inIv, inSet[tr.OID])
				}
			}
		}
	}
}

// TestUQ31SubsetRelations: UQ32 ⊆ UQ33(x) ⊆ UQ31 for any x; UQ41(k)
// grows with k.
func TestSubsetRelations(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(13), 50)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcessor(trs, trs[0], 0, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	s31 := toSet(p.UQ31())
	s32 := toSet(p.UQ32())
	s33, err := p.UQ43(1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for id := range s32 {
		if !s31[id] {
			t.Errorf("UQ32 member %d not in UQ31", id)
		}
	}
	for _, id := range s33 {
		if !s31[id] {
			t.Errorf("UQ33 member %d not in UQ31", id)
		}
	}
	prev := 0
	for k := 1; k <= 4; k++ {
		ids, err := p.UQ41(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) < prev {
			t.Errorf("UQ41(%d) shrank: %d < %d", k, len(ids), prev)
		}
		prev = len(ids)
	}
}

func toSet(ids []int64) map[int64]bool {
	m := map[int64]bool{}
	for _, id := range ids {
		m[id] = true
	}
	return m
}
