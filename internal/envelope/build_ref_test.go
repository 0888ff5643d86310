package envelope

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/numeric"
	"repro/internal/pool"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// The cold build's reference. NewDistanceFunc, Intersections, Env2, MergeLE,
// LE_Alg and the level-k loop as they were before their scratch moved into
// caller-owned and pooled buffers, kept verbatim (slices instead of appends
// into a caller's buffer): the envelope kernels must return their bits.

func refNewDistanceFunc(id int64, a, b *trajectory.Trajectory, tb, te float64) (*DistanceFunc, error) {
	if err := CheckWindow(a, b, tb, te); err != nil {
		return nil, err
	}
	cuts := append(a.VertexTimesWithin(tb, te), b.VertexTimesWithin(tb, te)...)
	cuts = append(cuts, tb, te)
	sort.Float64s(cuts)
	f := &DistanceFunc{ID: id}
	for i := 1; i < len(cuts); i++ {
		t0, t1 := cuts[i-1], cuts[i]
		if t1-t0 <= TimeEps {
			continue
		}
		pa := a.At(t0).Sub(b.At(t0))
		va := a.VelocityAt(t0 + (t1-t0)/2).Sub(b.VelocityAt(t0 + (t1-t0)/2))
		f.Pieces = append(f.Pieces, Piece{
			T0: t0, T1: t1, Tref: t0,
			A: va.LenSq(),
			B: 2 * (pa.X*va.X + pa.Y*va.Y),
			C: pa.LenSq(),
		})
	}
	if len(f.Pieces) == 0 {
		return nil, ErrEmptyWindow
	}
	return f, nil
}

func refIntersections(f, g *DistanceFunc, lo, hi float64) []float64 {
	var out []float64
	for _, pf := range f.Pieces {
		if pf.T1 <= lo || pf.T0 >= hi {
			continue
		}
		for _, pg := range g.Pieces {
			l := math.Max(math.Max(pf.T0, pg.T0), lo)
			h := math.Min(math.Min(pf.T1, pg.T1), hi)
			if h-l <= TimeEps {
				continue
			}
			a := pf.A - pg.A
			b := (pf.B - 2*pf.A*pf.Tref) - (pg.B - 2*pg.A*pg.Tref)
			c := (pf.A*pf.Tref*pf.Tref - pf.B*pf.Tref + pf.C) -
				(pg.A*pg.Tref*pg.Tref - pg.B*pg.Tref + pg.C)
			roots, n := numeric.QuadRoots(a, b, c)
			for _, r := range roots[:n] {
				if r > l+TimeEps && r < h-TimeEps {
					out = append(out, r)
				}
			}
		}
	}
	sort.Float64s(out)
	return dedupTimes(out)
}

func refEnv2(f, g *DistanceFunc, lo, hi float64) []Interval {
	if hi-lo <= TimeEps {
		return nil
	}
	cuts := []float64{lo}
	cuts = append(cuts, refIntersections(f, g, lo, hi)...)
	cuts = append(cuts, hi)
	var out []Interval
	for i := 1; i < len(cuts); i++ {
		t0, t1 := cuts[i-1], cuts[i]
		if t1-t0 <= TimeEps {
			continue
		}
		mid := 0.5 * (t0 + t1)
		id := f.ID
		if g.ValueSq(mid) < f.ValueSq(mid) {
			id = g.ID
		}
		out = concatMerge(out, Interval{ID: id, T0: t0, T1: t1})
	}
	return out
}

func refMergeLE(a, b []Interval, fns map[int64]*DistanceFunc) []Interval {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	var out []Interval
	k, p := 0, 0
	for k < len(a) && p < len(b) {
		ia, ib := a[k], b[p]
		tcl := math.Max(ia.T0, ib.T0)
		tcu := math.Min(ia.T1, ib.T1)
		if tcu-tcl > TimeEps {
			for _, iv := range refEnv2(fns[ia.ID], fns[ib.ID], tcl, tcu) {
				out = concatMerge(out, iv)
			}
		}
		switch {
		case ia.T1 < ib.T1-TimeEps:
			k++
		case ib.T1 < ia.T1-TimeEps:
			p++
		default:
			k++
			p++
		}
	}
	return out
}

func refLeAlg(fns []*DistanceFunc, tb, te float64, table map[int64]*DistanceFunc) []Interval {
	if len(fns) == 1 {
		return []Interval{{ID: fns[0].ID, T0: tb, T1: te}}
	}
	c := len(fns) / 2
	left := refLeAlg(fns[:c], tb, te, table)
	right := refLeAlg(fns[c:], tb, te, table)
	return refMergeLE(left, right, table)
}

func refKLevels(fns []*DistanceFunc, tb, te float64, k int) [][]Interval {
	table := buildTable(fns)
	out := [][]Interval{refLeAlg(fns, tb, te, table)}
	idAt := func(ivs []Interval, t float64) int64 {
		i := sort.Search(len(ivs), func(k int) bool { return ivs[k].T1 >= t })
		return ivs[min(i, len(ivs)-1)].ID
	}
	for j := 2; j <= k && j <= len(fns); j++ {
		cutSet := []float64{tb, te}
		for _, e := range out {
			for _, iv := range e {
				if iv.T1 > tb && iv.T1 < te {
					cutSet = append(cutSet, iv.T1)
				}
			}
		}
		sort.Float64s(cutSet)
		cutSet = dedupTimes(cutSet)
		var ivs []Interval
		for i := 0; i+1 < len(cutSet); i++ {
			t0, t1 := cutSet[i], cutSet[i+1]
			if t1-t0 <= TimeEps {
				continue
			}
			mid := 0.5 * (t0 + t1)
			excluded := make(map[int64]bool, j-1)
			for _, e := range out {
				excluded[idAt(e, mid)] = true
			}
			var remaining []*DistanceFunc
			for _, f := range fns {
				if !excluded[f.ID] {
					remaining = append(remaining, f)
				}
			}
			if len(remaining) > 0 {
				for _, iv := range refLeAlg(remaining, t0, t1, table) {
					ivs = concatMerge(ivs, iv)
				}
			}
		}
		if len(ivs) == 0 {
			break
		}
		out = append(out, ivs)
	}
	return out
}

func sameIntervals(a, b []Interval) bool {
	return slices.EqualFunc(a, b, func(x, y Interval) bool {
		return x.ID == y.ID && math.Float64bits(x.T0) == math.Float64bits(y.T0) && math.Float64bits(x.T1) == math.Float64bits(y.T1)
	})
}

func sameBitsFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// refFleets are the trajectory sets the reference gates run on: the
// generator's single- and multi-segment fleets, plus movers whose vertex
// times coincide with each other's, with the window ends, or sit within
// TimeEps of one another (cuts the pieces must skip).
func refFleets(t *testing.T) [][]*trajectory.Trajectory {
	t.Helper()
	var fleets [][]*trajectory.Trajectory
	for _, seed := range []int64{3, 2009, 2025} {
		for _, cfg := range []workload.Config{workload.DefaultConfig(seed), workload.SingleSegmentConfig(seed)} {
			trs, err := workload.Generate(cfg, 80)
			if err != nil {
				t.Fatal(err)
			}
			fleets = append(fleets, trs)
		}
	}
	rng := rand.New(rand.NewSource(41))
	var odd []*trajectory.Trajectory
	for oid := int64(1); oid <= 40; oid++ {
		times := []float64{0, 60}
		for k := rng.Intn(6); k > 0; k-- {
			switch rng.Intn(4) {
			case 0:
				times = append(times, float64(5*rng.Intn(12))) // shared grid times, window ends
			case 1:
				times = append(times, 17+TimeEps*rng.Float64()) // within TimeEps of 17
			default:
				times = append(times, 60*rng.Float64())
			}
		}
		slices.Sort(times)
		times = slices.Compact(times)
		verts := make([]trajectory.Vertex, len(times))
		for i, tm := range times {
			verts[i] = trajectory.Vertex{X: 40 * rng.Float64(), Y: 40 * rng.Float64(), T: tm}
		}
		tr, err := trajectory.New(oid, verts)
		if err != nil {
			t.Fatal(err)
		}
		odd = append(odd, tr)
	}
	return append(fleets, odd)
}

var refWindows = [][2]float64{{0, 60}, {17, 27}, {12.5, 44}, {17, 17 + 5e-10}, {5, 35}}

// TestDistanceFuncsBitIdentical: the two-cursor cut merge builds the
// reference's pieces bit for bit, and fails where it fails.
func TestDistanceFuncsBitIdentical(t *testing.T) {
	for fi, trs := range refFleets(t) {
		q := trs[0]
		for _, w := range refWindows {
			for _, tr := range trs[1:] {
				got, err := NewDistanceFunc(tr.OID, tr, q, w[0], w[1])
				want, werr := refNewDistanceFunc(tr.OID, tr, q, w[0], w[1])
				if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
					t.Fatalf("fleet %d window %v oid %d: error %v, reference %v", fi, w, tr.OID, err, werr)
				}
				if err != nil {
					continue
				}
				if len(got.Pieces) != len(want.Pieces) || cap(got.Pieces) != len(got.Pieces) {
					t.Fatalf("fleet %d window %v oid %d: %d pieces (cap %d), reference %d", fi, w, tr.OID, len(got.Pieces), cap(got.Pieces), len(want.Pieces))
				}
				for i, p := range got.Pieces {
					r := want.Pieces[i]
					if !sameBitsFloats([]float64{p.T0, p.T1, p.Tref, p.A, p.B, p.C}, []float64{r.T0, r.T1, r.Tref, r.A, r.B, r.C}) {
						t.Fatalf("fleet %d window %v oid %d piece %d: %+v, reference %+v", fi, w, tr.OID, i, p, r)
					}
				}
			}
		}
	}
}

// TestEnvelopeKernelsBitIdentical: Intersections and Env2 appending into a
// caller's buffer, MergeLE with Env2 writing into its output, LE_Alg on
// pooled stacks (serial and on a pool) and the level-k loop return the
// reference's intervals bit for bit.
func TestEnvelopeKernelsBitIdentical(t *testing.T) {
	pl := pool.New(3)
	for fi, trs := range refFleets(t) {
		for _, w := range refWindows[:3] {
			fns, err := BuildDistanceFuncs(trs, trs[0], w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			table := buildTable(fns)
			buf := []float64{-1}
			ivbuf := []Interval{{ID: -1, T0: -2, T1: -1}}
			for i := 0; i+1 < len(fns); i++ {
				f, g := fns[i], fns[i+1]
				if got, want := Intersections(buf[:1], f, g, w[0], w[1]), refIntersections(f, g, w[0], w[1]); got[0] != -1 || !sameBitsFloats(got[1:], want) {
					t.Fatalf("fleet %d window %v: Intersections(%d, %d) = %v, reference %v", fi, w, f.ID, g.ID, got, want)
				}
				if got, want := Env2(ivbuf[:1], f, g, w[0], w[1]), refEnv2(f, g, w[0], w[1]); got[0].ID != -1 || !sameIntervals(got[1:], want) {
					t.Fatalf("fleet %d window %v: Env2(%d, %d) = %v, reference %v", fi, w, f.ID, g.ID, got, want)
				}
			}
			for _, n := range []int{1, 2, 3, 7, len(fns)} {
				sub := fns[:n]
				want := refLeAlg(sub, w[0], w[1], table)
				for _, p := range []*pool.Pool{nil, pl} {
					env, err := LowerEnvelopeOn(p, sub, w[0], w[1])
					if err != nil {
						t.Fatal(err)
					}
					if !sameIntervals(env.Intervals, want) || cap(env.Intervals) != len(env.Intervals) {
						t.Fatalf("fleet %d window %v n=%d: LowerEnvelopeOn gives %d intervals (cap %d), reference %d", fi, w, n, len(env.Intervals), cap(env.Intervals), len(want))
					}
				}
				if n > 1 {
					a, b := refLeAlg(sub[:n/2], w[0], w[1], table), refLeAlg(sub[n/2:], w[0], w[1], table)
					if got := MergeLE(nil, a, b, table); !sameIntervals(got, want) {
						t.Fatalf("fleet %d window %v n=%d: MergeLE differs from the reference", fi, w, n)
					}
					// Onto a non-empty dst, the merge and the copy of an
					// empty input's partner both fuse with ⊎.
					fused := append([]Interval{{ID: want[0].ID, T0: w[0] - 1, T1: want[0].T1}}, want[1:]...)
					for _, in := range [][2][]Interval{{a, b}, {want, nil}, {nil, want}} {
						dst := []Interval{{ID: want[0].ID, T0: w[0] - 1, T1: w[0]}}
						if got := MergeLE(dst, in[0], in[1], table); !sameIntervals(got, fused) {
							t.Fatalf("fleet %d window %v n=%d: MergeLE onto %v gives %v, want %v", fi, w, n, dst, got[:1], fused[:1])
						}
					}
				}
			}
			want := refKLevels(fns, w[0], w[1], 3)
			for _, p := range []*pool.Pool{nil, pl} {
				levels, err := KLevelEnvelopes(p, fns, w[0], w[1], 3)
				if err != nil {
					t.Fatal(err)
				}
				if len(levels) != len(want) {
					t.Fatalf("fleet %d window %v: %d levels, reference %d", fi, w, len(levels), len(want))
				}
				for j, lv := range levels {
					if !sameIntervals(lv.Intervals, want[j]) || cap(lv.Intervals) != len(lv.Intervals) {
						t.Fatalf("fleet %d window %v level %d: %d intervals (cap %d), reference %d", fi, w, j+1, len(lv.Intervals), cap(lv.Intervals), len(want[j]))
					}
				}
			}
		}
	}
}

// TestEnvelopeKernelAllocs holds the build's allocation counts: a distance
// function is its struct and its pieces; QuadRoots, Intersections and Env2
// into a buffer with room touch no heap; a MergeLE that adds no crossing
// allocates its output and nothing else.
func TestEnvelopeKernelAllocs(t *testing.T) {
	mk := func(oid int64, vs ...trajectory.Vertex) *trajectory.Trajectory {
		tr, err := trajectory.New(oid, vs)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	q := mk(100, trajectory.Vertex{T: 0}, trajectory.Vertex{X: 3, T: 20}, trajectory.Vertex{X: 3, Y: 4, T: 60})
	a := mk(1, trajectory.Vertex{X: 10, T: 0}, trajectory.Vertex{X: 12, Y: 3, T: 30}, trajectory.Vertex{X: -10, T: 60})
	b := mk(2, trajectory.Vertex{X: 5, Y: 5, T: 0}, trajectory.Vertex{X: 5, Y: 5, T: 60})
	far := mk(3, trajectory.Vertex{X: 80, T: 0}, trajectory.Vertex{X: 90, T: 60})
	if n := testing.AllocsPerRun(50, func() { _, _ = NewDistanceFunc(1, a, q, 0, 60) }); n != 2 {
		t.Errorf("NewDistanceFunc makes %v allocations, want 2 (the func and its pieces)", n)
	}
	f, _ := NewDistanceFunc(1, a, q, 0, 60)
	g, _ := NewDistanceFunc(2, b, q, 0, 60)
	h, _ := NewDistanceFunc(3, far, q, 0, 60)
	ts := make([]float64, 0, 16)
	if len(Intersections(ts, f, g, 0, 60)) == 0 {
		t.Fatal("the pair must cross for the gate to mean anything")
	}
	if n := testing.AllocsPerRun(50, func() { ts = Intersections(ts[:0], f, g, 0, 60) }); n != 0 {
		t.Errorf("Intersections into a buffer with room makes %v allocations, want 0", n)
	}
	ivs := make([]Interval, 0, 16)
	if n := testing.AllocsPerRun(50, func() { ivs = Env2(ivs[:0], f, g, 0, 60) }); n != 0 {
		t.Errorf("Env2 into a buffer with room makes %v allocations, want 0", n)
	}
	table := map[int64]*DistanceFunc{1: f, 2: g, 3: h}
	left := MergeLE(nil, []Interval{{ID: 1, T0: 0, T1: 60}}, []Interval{{ID: 2, T0: 0, T1: 60}}, table)
	right := []Interval{{ID: 3, T0: 0, T1: 60}}
	if got := MergeLE(nil, left, right, table); !sameIntervals(got, left) {
		t.Fatalf("the far function must add no crossing: %v", got)
	}
	if n := testing.AllocsPerRun(50, func() { _ = MergeLE(nil, left, right, table) }); n != 1 {
		t.Errorf("a MergeLE that adds no crossing makes %v allocations, want 1 (its output)", n)
	}
}
