package prune

// The per-slice sweep this package ran before the window-once pass, kept
// here as the reference implementation: per slice an independent index
// range search, a sort of the hit list, a map lookup per hit and an
// allocating exact test. The property test below holds the shipped sweep
// to *set equality* with it — not just to conservativeness — over worlds
// built to reach every way the two could part: chained trees carrying
// superseded entries, retired and re-inserted OIDs, filtered snapshots
// whose membership tag flips keep moving, ranks 1–3, a slice without a
// bound, entries that touch a slice at a single instant, windows that end
// where plans do, and a vanishing radius. The probe
// phase is held to its own straight-line reference the same way: bounds
// bit for bit, and the probe count.

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/queries"
	"repro/internal/sindex"
	"repro/internal/textidx"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// refMinDist is the old minDistOverSlice: collect both vertex-time lists,
// sort, and take the difference-frame segment distance per elementary
// interval.
func refMinDist(a, b *trajectory.Trajectory, t0, t1 float64) float64 {
	cuts := append(a.VertexTimesWithin(t0, t1), b.VertexTimesWithin(t0, t1)...)
	cuts = append(cuts, t0, t1)
	slices.Sort(cuts)
	var origin geom.Point
	best := math.Inf(1)
	for i := 1; i < len(cuts); i++ {
		s0, s1 := cuts[i-1], cuts[i]
		if s1 <= s0 {
			continue
		}
		p0 := a.At(s0).Sub(b.At(s0))
		p1 := a.At(s1).Sub(b.At(s1))
		seg := geom.Segment{A: geom.Point{X: p0.X, Y: p0.Y}, B: geom.Point{X: p1.X, Y: p1.Y}}
		if d := seg.At(seg.ClosestParam(origin)).DistSq(origin); d < best {
			best = d
		}
	}
	return math.Sqrt(best)
}

// refMaxDist is the old maxDistOverSlice.
func refMaxDist(a, b *trajectory.Trajectory, t0, t1 float64) float64 {
	best := math.Max(a.At(t0).DistSq(b.At(t0)), a.At(t1).DistSq(b.At(t1)))
	for _, tv := range append(a.VertexTimesWithin(t0, t1), b.VertexTimesWithin(t0, t1)...) {
		if d := a.At(tv).DistSq(b.At(tv)); d > best {
			best = d
		}
	}
	return math.Sqrt(best)
}

// snapshotByID is the old sweeps' OID lookup: a map over the session's
// snapshot, built per call.
func snapshotByID(s *Sweep) map[int64]*trajectory.Trajectory {
	byID := make(map[int64]*trajectory.Trajectory, len(s.trs))
	for _, tr := range s.trs {
		byID[tr.OID] = tr
	}
	return byID
}

// refBounds is the probe phase written out straight: one KNN probe at the
// midpoint of every probeStride-th slice and of the last, a map lookup per
// neighbour (a filtered snapshot holds the matching objects only) into one
// pool keyed by OID, then per slice the allocating maximum distance of
// every pooled object and the k-th smallest of those. It returns the
// bounds and how many distances it evaluated.
func refBounds(s *Sweep, k int) ([]float64, int) {
	byID := snapshotByID(s)
	width := min(max(kProbe, k+4)*s.boost, maxProbes)
	n := len(s.cuts) - 1
	pool := make(map[int64]*trajectory.Trajectory)
	for i := 0; i < n; i++ {
		if i%probeStride != 0 && i != n-1 {
			continue
		}
		mid := 0.5 * (s.cuts[i] + s.cuts[i+1])
		for _, nb := range s.idx.KNN(s.q.At(mid), mid, width) {
			if tr, ok := byID[nb.ID]; ok && nb.ID != s.q.OID {
				pool[nb.ID] = tr
			}
		}
	}
	bounds, probes := make([]float64, n), 0
	for i := range bounds {
		t0, t1 := s.cuts[i], s.cuts[i+1]
		var dists []float64
		for _, tr := range pool {
			probes++
			dists = append(dists, refMaxDist(tr, s.q, t0, t1))
		}
		slices.Sort(dists)
		bounds[i] = math.Inf(1)
		if len(dists) >= k {
			bounds[i] = dists[k-1]
		}
	}
	return bounds, probes
}

// refSweep is the old sweepBounds over the session's snapshot.
func refSweep(s *Sweep, bounds []float64) []int64 {
	byID := snapshotByID(s)
	width := 4*s.r + Margin
	survivors := make(map[int64]struct{})
	for i := 1; i < len(s.cuts); i++ {
		t0, t1 := s.cuts[i-1], s.cuts[i]
		u := bounds[i-1]
		if math.IsInf(u, 1) {
			for _, tr := range s.trs {
				if tr.OID != s.q.OID {
					survivors[tr.OID] = struct{}{}
				}
			}
			continue
		}
		qbox := geom.AABBOf(s.q.At(t0), s.q.At(t1))
		hits := searchRange(s.idx, qbox.Expand(u+width), t0, t1) // one range search per slice
		slices.Sort(hits)
		for i, id := range hits {
			if id == s.q.OID || (i > 0 && id == hits[i-1]) {
				continue
			}
			if _, ok := survivors[id]; ok {
				continue
			}
			tr, ok := byID[id]
			if !ok {
				continue
			}
			if refMinDist(tr, s.q, t0, t1) <= u+width {
				survivors[id] = struct{}{}
			}
		}
	}
	ids := make([]int64, 0, len(survivors))
	for id := range survivors {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// randomPlan draws vertices from `from` to exactly 60 at irregular times,
// so revised plans keep covering every window yet stop sharing the
// fleet's synchronous vertex times.
func randomPlan(rng *rand.Rand, from float64) []trajectory.Vertex {
	var vs []trajectory.Vertex
	for t := from; ; t += 2 + 9*rng.Float64() {
		if t > 58 {
			t = 60
		}
		vs = append(vs, trajectory.Vertex{X: 40 * rng.Float64(), Y: 40 * rng.Float64(), T: t})
		if t == 60 {
			return vs
		}
	}
}

// churn applies one round of live updates: mid-plan revisions (superseded
// entries stay in the chained tree), a retire + re-insert of the same OID
// with a new plan, and tag flips (the sub-MOD's membership moves).
func churn(t *testing.T, rng *rand.Rand, store *mod.Store, protect int64) {
	t.Helper()
	oids := store.OIDs()
	var us []mod.Update
	for i := 0; i < len(oids)/4; i++ {
		oid := oids[rng.Intn(len(oids))]
		us = append(us, mod.Update{OID: oid, Verts: randomPlan(rng, 1+50*rng.Float64())})
	}
	victim := oids[rng.Intn(len(oids))]
	if victim != protect {
		us = append(us, mod.Update{OID: victim, Retire: true}, mod.Update{OID: victim, Verts: randomPlan(rng, 0)})
	}
	for i := 0; i < 6; i++ {
		tags := []string{"available"}
		if rng.Intn(2) == 0 {
			tags = []string{}
		}
		us = append(us, mod.Update{OID: oids[rng.Intn(len(oids))], Tags: &tags})
	}
	if _, err := store.ApplyUpdates(us); err != nil {
		t.Fatal(err)
	}
}

func oidsOf(trs []*trajectory.Trajectory) []int64 {
	ids := make([]int64, len(trs))
	for i, tr := range trs {
		ids[i] = tr.OID
	}
	return ids
}

func TestSweepEqualsReference(t *testing.T) {
	ctx := context.Background()
	avail := &textidx.Predicate{All: []string{"available"}}
	windows := [][2]float64{{0, 10}, {10, 20}, {17.3, 31.9}, {50, 60}, {0, 60}}
	sweeps, kinds := 0, map[string]int{}
	for seed, r := range []float64{0.5, 1e-6, 2} {
		rng := rand.New(rand.NewSource(int64(seed)))
		trs, err := workload.Generate(workload.DefaultConfig(int64(100+seed)), 220)
		if err != nil {
			t.Fatal(err)
		}
		store, err := mod.NewUniformStore(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.InsertAll(trs); err != nil {
			t.Fatal(err)
		}
		for _, tr := range trs {
			if tr.OID%2 == 0 {
				if err := store.SetTags(tr.OID, []string{"available"}); err != nil {
					t.Fatal(err)
				}
			}
		}
		store.BuildIndex(0) // warm: every later round chains it
		qOID := trs[7].OID
		for round := 0; round < 4; round++ {
			if round > 0 {
				churn(t, rng, store, qOID)
			}
			q, err := store.Get(qOID)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range windows {
				for _, where := range []*textidx.Predicate{nil, avail} {
					s := newSweep(store, q, w[0], w[1], where)
					if s.stale {
						t.Fatal("stale session without a concurrent writer")
					}
					full, err := queries.NewProcessor(s.trs, q, w[0], w[1], r)
					if err != nil {
						t.Fatal(err)
					}
					for k := 1; k <= 3; k++ {
						rb, err := s.rankBounds(ctx, k)
						if err != nil {
							t.Fatal(err)
						}
						if want, probes := refBounds(s, k); !slices.Equal(rb.bounds, want) || rb.probes != probes {
							t.Fatalf("r=%g round=%d window=%v where=%v k=%d: probe phase got %v (%d probes), reference %v (%d)",
								r, round, w, where != nil, k, rb.bounds, rb.probes, want, probes)
						}
						for _, bounds := range [][]float64{rb.bounds, withInf(rb.bounds, rng)} {
							kept, err := s.sweep(ctx, bounds)
							if err != nil {
								t.Fatal(err)
							}
							got, want := oidsOf(kept), refSweep(s, bounds)
							if !slices.Equal(got, want) {
								t.Fatalf("r=%g round=%d window=%v where=%v k=%d: sweep kept %d, reference %d\n got %v\nwant %v",
									r, round, w, where != nil, k, len(got), len(want), got, want)
							}
							sweeps++
						}
						// And the point of it all: every true rank-k zone
						// member is among the survivors of its own bounds.
						own, err := s.sweep(ctx, rb.bounds)
						if err != nil {
							t.Fatal(err)
						}
						kept := oidsOf(own)
						zone, err := full.UQ41(k)
						if err != nil {
							t.Fatal(err)
						}
						for _, id := range zone {
							if _, ok := slices.BinarySearch(kept, id); !ok {
								t.Fatalf("r=%g window=%v k=%d: zone member %d was pruned", r, w, k, id)
							}
						}
					}
					kind := "rtree"
					if where != nil {
						kind += "+where"
					}
					kinds[kind]++
				}
			}
		}
		// Every round after the first swept a chained tree.
		if st := store.IndexStats(); st.SegIncremental == 0 {
			t.Fatalf("the world never chained its index: %+v", st)
		}
	}
	for _, kind := range []string{"rtree", "rtree+where"} {
		if kinds[kind] == 0 {
			t.Fatalf("no session swept %s: %v", kind, kinds)
		}
	}
	t.Logf("%d sweeps equal to the reference (sessions: %v)", sweeps, kinds)
}

// withInf returns bounds with one slice unbounded.
func withInf(bounds []float64, rng *rand.Rand) []float64 {
	out := slices.Clone(bounds)
	out[rng.Intn(len(out))] = math.Inf(1)
	return out
}

// TestDistancesMatchReference: the two-cursor distance functions return
// the old ones' values bit for bit — the sweep's verdicts, the probe
// bounds and the hub's dirty test all hang on them.
func TestDistancesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trs, err := workload.Generate(workload.DefaultConfig(9), 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trs {
		if i%3 == 0 { // irregular vertex times beside the synchronous ones
			trs[i] = &trajectory.Trajectory{OID: trs[i].OID, Verts: randomPlan(rng, 0)}
		}
	}
	for n := 0; n < 4000; n++ {
		a, b := trs[rng.Intn(len(trs))], trs[rng.Intn(len(trs))]
		t0 := -5 + 70*rng.Float64() // windows reach past both plan ends
		t1 := t0 + 12*rng.Float64()
		if n%7 == 0 {
			t0, t1 = 10*float64(rng.Intn(7)), 10*float64(rng.Intn(7)) // on the vertices, possibly empty
		}
		if got, want := minDistOverSlice(a, b, t0, t1), refMinDist(a, b, t0, t1); got != want && t0 <= t1 {
			t.Fatalf("minDistOverSlice(%d, %d, %g, %g) = %v, reference %v", a.OID, b.OID, t0, t1, got, want)
		}
		if got, want := maxDistOverSlice(a, b, t0, t1, b.At(t0), b.At(t1)), refMaxDist(a, b, t0, t1); got != want {
			t.Fatalf("maxDistOverSlice(%d, %d, %g, %g) = %v, reference %v", a.OID, b.OID, t0, t1, got, want)
		}
	}
}

// TestSweepCancellationCheckpoints: a context that dies *during* the walk
// stops it at the checkpoint that sees it, not at the next sweep.
func TestSweepCancellationCheckpoints(t *testing.T) {
	store, trs := sweepStore(t, 400)
	s := newSweep(store, trs[0], 0, 60, nil)
	rb, err := s.rankBounds(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rb.bounds {
		rb.bounds[i] = 1e3 // finite, and wide enough to nominate every entry
	}
	// Err call 1 is the sweep's own entry check, call n+1 the checkpoint
	// after n·ctxEvery nominations: die at the second checkpoint of the
	// (400·6)/ctxEvery the whole walk would reach.
	ctx := &dyingCtx{Context: context.Background(), after: 3}
	if _, err := s.sweep(ctx, rb.bounds); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ctx.calls != ctx.after {
		t.Fatalf("the walk checked its context %d times after a cancel at check %d (a checkpoint every %d of %d entries)",
			ctx.calls, ctx.after, ctxEvery, 400*6)
	}
}

// dyingCtx reports context.Canceled from its after-th Err call on, and
// counts the calls.
type dyingCtx struct {
	context.Context
	after, calls int
}

func (c *dyingCtx) Err() error {
	if c.calls++; c.calls >= c.after {
		return context.Canceled
	}
	return nil
}

// searchRange collects the IDs tree.Visit reports for box × [t0, t1], an ID
// once per matching entry.
func searchRange(tree *sindex.RTree, box geom.AABB, t0, t1 float64) []int64 {
	var out []int64
	tree.Visit(box, t0, t1, func(id int64) bool {
		out = append(out, id)
		return true
	})
	return out
}
