package prune

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mod"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// FuzzProbeBoundsSound: on small random fleets — fresh or chained through
// rounds of revisions, retire + re-insert and tag flips, whole or
// filtered to the objects tagged "available" — every slice's rank-k probe
// bound (k = 1..3) is at least the full-scan Level-k envelope over the
// slice: the k-th smallest distance from the query among the snapshot's
// objects, sampled densely. This is the soundness the pooled probe rests
// on, checked against the envelope itself rather than a reference probe.
func FuzzProbeBoundsSound(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0), uint8(0), false, 10.0, 20.0)
	f.Add(int64(2), uint8(30), uint8(1), uint8(3), true, 0.0, 60.0)
	f.Add(int64(3), uint8(4), uint8(2), uint8(2), true, 41.5, 7.25)
	f.Add(int64(4), uint8(20), uint8(2), uint8(1), false, 17.3, 14.6)
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, seed int64, n, rank, rounds uint8, filtered bool, tb, span float64) {
		if math.IsNaN(tb) || math.IsInf(tb, 0) || math.IsNaN(span) || math.IsInf(span, 0) {
			return
		}
		tb = math.Mod(math.Abs(tb), 59)
		te := math.Min(60, tb+0.25+math.Abs(span))
		k := 1 + int(rank%3)
		rng := rand.New(rand.NewSource(seed))
		store, err := mod.NewUniformStore(0.5)
		if err != nil {
			t.Fatal(err)
		}
		for oid := int64(1); oid <= 2+int64(n%40); oid++ {
			if err := store.Insert(&trajectory.Trajectory{OID: oid, Verts: randomPlan(rng, 0)}); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				if err := store.SetTags(oid, []string{"available"}); err != nil {
					t.Fatal(err)
				}
			}
		}
		store.BuildIndex(0) // later rounds chain it, superseded entries and all
		const qOID = 1
		for range rounds % 4 {
			churn(t, rng, store, qOID)
		}
		var where *textidx.Predicate
		if filtered {
			if where, err = (&textidx.Predicate{All: []string{"available"}}).Normalize(); err != nil {
				t.Fatal(err)
			}
		}
		q, err := store.Get(qOID)
		if err != nil {
			t.Fatal(err)
		}
		s := newSweep(store, q, tb, te, where)
		if s.stale {
			t.Fatal("stale session without a concurrent writer")
		}
		rb, err := s.rankBounds(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		const samples = 64
		var dists []float64
		for i, bound := range rb.bounds {
			t0, t1 := s.cuts[i], s.cuts[i+1]
			for j := 0; j <= samples; j++ {
				at := t0 + (t1-t0)*float64(j)/samples
				qp := q.At(at)
				dists = dists[:0]
				for _, tr := range s.trs {
					if tr.OID != qOID {
						dists = append(dists, tr.At(at).Dist(qp))
					}
				}
				if len(dists) < k {
					continue // no Level-k envelope: any bound holds
				}
				slices.Sort(dists)
				if env := dists[k-1]; env > bound*(1+1e-12) {
					t.Fatalf("window [%g, %g] k=%d filtered=%v: slice %d [%g, %g] bound %v, but the Level-%d envelope is %v at t=%g",
						tb, te, k, filtered, i, t0, t1, bound, k, env, at)
				}
			}
		}
	})
}
