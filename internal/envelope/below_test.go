package envelope

import (
	"testing"

	"repro/internal/trajectory"
)

// gateDeltas are the zone offsets the bit-identity gate runs at: the
// Level-1 4r zone of the benchmark's r = 0.5, a touch above zero, zero,
// and the negative offsets of the guaranteed-NN test.
var gateDeltas = []float64{0, 1e-9, 0.5, 2, -0.5, -2}

// checkBits fails unless BelowIntervals and the reference sampler return
// the same row, bound for bound, bit for bit.
func checkBits(t *testing.T, name string, f *DistanceFunc, e *Envelope, delta float64) {
	t.Helper()
	got, want := BelowIntervals(f, e, delta), refBelowIntervals(f, e, delta)
	if !sameBits(got, want) {
		t.Fatalf("%s: f=%d δ=%g:\n got  %v\n want %v", name, f.ID, delta, got, want)
	}
}

// certifiedShare walks one row's elementary intervals with the sweep's
// cursors the way BelowIntervals does, fails if any of the 17 samples of
// an interval contradicts the sign certify returned for it (the gate
// would only see a contradiction that moved a root), and returns how many
// intervals the certificate decided out of how many.
func certifiedShare(t *testing.T, f *DistanceFunc, e *Envelope, delta float64) (certified, total int) {
	t.Helper()
	cuts := appendCutTimes(nil, f, e)
	fc, ec := pieceCursor{ps: f.Pieces}, newEnvCursor(e)
	gap := func(t float64) float64 {
		return signedGap(fc.advance(t).ValueSq(t), ec.at(t, false).ValueSq(t), delta)
	}
	for i := 1; i < len(cuts); i++ {
		t0, t1 := cuts[i-1], cuts[i]
		if t1-t0 <= TimeEps {
			continue
		}
		total++
		v0 := gap(t0)
		f0, e0 := fc, ec
		end := t0 + (t1-t0)*16/16
		gap(end)
		// Ask for both signs: the sweep asks only for the end samples' sign,
		// but a certificate must never prove one the samples contradict.
		for _, neg := range []bool{false, true} {
			if !certify(f.Pieces, f0.i, fc.i, &e0, &ec, t0, end, delta, neg) {
				continue
			}
			certified++
			fe, ee := fc, ec
			fc, ec = f0, e0
			for s := 0; s <= 16; s++ {
				v := v0
				if s > 0 {
					v = gap(t0 + (t1-t0)*float64(s)/16)
				}
				if (v < 0) != neg {
					t.Fatalf("f=%d δ=%g: certified neg=%v on [%v, %v], sample %d reads %g", f.ID, delta, neg, t0, t1, s, v)
				}
			}
			fc, ec = fe, ee
		}
	}
	return certified, total
}

// TestBelowIntervalsBitIdentical is the gate of the certificate: on random
// fleets (single- and multi-segment, 50 seeds each), on Level-1, Level-2
// and compacted envelopes, at every gate offset, the scan that skips
// certified intervals returns exactly the reference sampler's row, and the
// certificate skips most intervals.
func TestBelowIntervalsBitIdentical(t *testing.T) {
	certified, total := 0, 0
	for _, segs := range []bool{false, true} {
		for seed := int64(1); seed <= 50; seed++ {
			fns := buildRandomFuncs(t, 1000+seed, 12, segs)
			levels, err := KLevelEnvelopes(nil, fns, 0, 60, 2)
			if err != nil {
				t.Fatal(err)
			}
			envs := []*Envelope{levels[0], levels[1], levels[0].Compact()}
			for _, f := range fns {
				for _, e := range envs {
					for _, d := range gateDeltas {
						checkBits(t, "random", f, e, d)
						c, n := certifiedShare(t, f, e, d)
						certified += c
						total += n
					}
				}
			}
		}
	}
	share := float64(certified) / float64(total)
	t.Logf("certified %d of %d elementary intervals (%.1f %%)", certified, total, 100*share)
	if share < 0.5 {
		t.Fatalf("the certificate decided only %.1f %% of the intervals", 100*share)
	}
}

// TestBelowIntervalsBitIdenticalDegenerate holds the certificate to the
// sampler on hand-built geometry: a function scanned against the envelope
// it defines, a function tangent to e + δ, parallel movers (A = 0
// pieces), an envelope boundary within TimeEps of a breakpoint of f, a
// one-interval window, and a piece break of g inside an elementary
// interval.
func TestBelowIntervalsBitIdenticalDegenerate(t *testing.T) {
	q := stillTr(t, 100, 0, 0)
	df := func(tr *trajectory.Trajectory, qq *trajectory.Trajectory, tb, te float64) *DistanceFunc {
		t.Helper()
		f, err := NewDistanceFunc(tr.OID, tr, qq, tb, te)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	env := func(fns ...*DistanceFunc) *Envelope {
		t.Helper()
		e, err := LowerEnvelope(fns, fns[0].Pieces[0].T0, fns[0].Pieces[len(fns[0].Pieces)-1].T1)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	all := func(name string, e *Envelope, fs ...*DistanceFunc) {
		t.Helper()
		for _, f := range fs {
			for _, d := range gateDeltas {
				checkBits(t, name, f, e, d)
				certifiedShare(t, f, e, d)
			}
		}
	}

	// Every definer scanned against its own envelope.
	for _, segs := range []bool{false, true} {
		fns := buildRandomFuncs(t, 7, 20, segs)
		e := env(fns...)
		for _, iv := range e.Intervals {
			all("definer", e, e.Func(iv.ID))
		}
	}

	// e = sqrt((t−30)² + 1), minimum 1 at t = 30; a still object at
	// distance 1 + δ touches e + δ there from below.
	pass := df(lineTr(t, 1, -30, 1, 30, 1), q, 0, 60)
	e := env(pass)
	for _, d := range gateDeltas {
		if 1+d > 0 {
			tangent := df(stillTr(t, 2, 0, 1+d), q, 0, 60)
			checkBits(t, "tangent", tangent, e, d)
			certifiedShare(t, tangent, e, d)
		}
	}

	// Parallel movers: every relative motion is zero, every piece A = 0.
	mq := lineTr(t, 100, 0, 0, 60, 0)
	par := []*DistanceFunc{
		df(lineTr(t, 1, 0, 2, 60, 2), mq, 0, 60),
		df(lineTr(t, 2, 0, -2.5, 60, -2.5), mq, 0, 60),
		df(lineTr(t, 3, 0, 4, 60, 4), mq, 0, 60),
	}
	cross := df(lineTr(t, 4, 0, 10, 60, -10), mq, 0, 60)
	all("parallel", env(par...), append(par, cross)...)

	// Envelope boundaries at t = 24 and 36 (a still object at 2 and one
	// passing at |10 − t/3|); f turns within TimeEps of each.
	base := df(stillTr(t, 1, 2, 0), q, 0, 60)
	dip := df(lineTr(t, 2, 10, 0, -10, 0), q, 0, 60)
	e = env(base, dip)
	if len(e.Intervals) != 3 {
		t.Fatalf("crossing envelope has %d intervals, want 3", len(e.Intervals))
	}
	for _, b := range []float64{e.Intervals[0].T1, e.Intervals[1].T1} {
		for _, off := range []float64{-0.5e-9, 0, 0.5e-9} {
			turn, err := trajectory.New(3, []trajectory.Vertex{{X: 3, Y: 1, T: 0}, {X: 1, Y: 2, T: b + off}, {X: 4, Y: -1, T: 60}})
			if err != nil {
				t.Fatal(err)
			}
			all("near-break", e, df(turn, q, 0, 60))
		}
	}

	// A one-interval window, short and long: one function, one piece.
	for _, w := range [][2]float64{{20, 20.5}, {0, 60}} {
		g := df(lineTr(t, 1, -5, 1, 5, 2), q, w[0], w[1])
		f := df(lineTr(t, 2, 3, -1, -2, 3), q, w[0], w[1])
		all("one-interval", env(g), f, g)
	}

	// g turns at t = 30 inside its only envelope interval.
	turn, err := trajectory.New(1, []trajectory.Vertex{{X: -6, Y: 1, T: 0}, {X: 0, Y: 1.5, T: 30}, {X: 6, Y: 0.5, T: 60}})
	if err != nil {
		t.Fatal(err)
	}
	g := df(turn, q, 0, 60)
	if len(g.Pieces) != 2 {
		t.Fatalf("turning g has %d pieces, want 2", len(g.Pieces))
	}
	all("g-break", env(g), df(stillTr(t, 2, 0, 2), q, 0, 60), df(lineTr(t, 3, 4, 0, -4, 0), q, 0, 60))
}

// FuzzBelowIntervals reads a handful of short trajectories, a window and
// an offset from the fuzzer's bytes and holds every zone row of the
// fleet — each function against the Level-1 and Level-2 envelopes of the
// others, at δ = ±4r — to the reference sampler, bit for bit. Coordinates
// are small integers and vertex times land on a coarse grid, so
// zero-length segments, coincident trajectories and exact ties come up
// often; r runs down to zero.
func FuzzBelowIntervals(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 7, 200, 13, 9, 9, 9, 9, 1, 2, 1, 2, 250, 3, 3, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%4
		r := float64(next()%16) / 8 // 0 .. 1.875
		coord := func() float64 { return float64(next()%21-10) / 2 }
		var trs []*trajectory.Trajectory
		for oid := int64(1); oid <= int64(n); oid++ {
			verts := []trajectory.Vertex{{X: coord(), Y: coord(), T: 0}}
			for tm := 0.0; ; {
				tm += float64(1 + next()%4)
				if tm >= 8 || len(data) == 0 {
					break
				}
				verts = append(verts, trajectory.Vertex{X: coord(), Y: coord(), T: tm})
			}
			verts = append(verts, trajectory.Vertex{X: coord(), Y: coord(), T: 8})
			tr, err := trajectory.New(oid, verts)
			if err != nil {
				t.Fatal(err)
			}
			trs = append(trs, tr)
		}
		tb := float64(next() % 4)
		te := tb + float64(1+next()%(8-int(tb)))
		fns, err := BuildDistanceFuncs(trs, trs[0], tb, te)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range fns {
			rest := without(fns, fn.ID)
			if len(rest) == 0 {
				rest = fns
			}
			levels, err := KLevelEnvelopes(nil, rest, tb, te, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range levels {
				for _, d := range []float64{4 * r, -4 * r} {
					if got, want := BelowIntervals(fn, e, d), refBelowIntervals(fn, e, d); !sameBits(got, want) {
						t.Fatalf("f=%d δ=%g:\n got  %v\n want %v", fn.ID, d, got, want)
					}
				}
			}
		}
	})
}
