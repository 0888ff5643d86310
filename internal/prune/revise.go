// Continuing a pre-pass instead of repeating it. A standing question is
// re-evaluated after every update batch that may touch it, and nearly
// every such batch leaves its envelope where it was: the paper's one lower
// envelope and one 4r zone answer the question for the whole window, and a
// revised plan changes exactly one difference-distance function. Seed
// records what an evaluation's pre-pass and envelope construction
// established; Revise decides — by one rule — whether a batch leaves that
// standing, and if so hands back the successor processor without a probe,
// a sweep or an envelope build.
package prune

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/envelope"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// Seed is the part of one evaluation the next one can start from: the
// processor's seed at the request's rank (scan set, levels, zone rows —
// see queries.Seed) and the per-slice bounds that scan set was swept
// against, at Level 1 and at the request's rank. It is immutable, and it
// is small: nothing in it grows with the candidate population.
type Seed struct {
	proc  *queries.Seed
	where *textidx.Predicate // normalized; nil = the whole MOD
	cuts  []float64
	// bounds1 and boundsK are what the Level-1 survivors and the rank
	// basis were swept against (one slice when the rank is 1). They
	// bounded the levels then, the levels have not moved since — Revise
	// only ever continues a seed whose levels stand — so they bound them
	// now.
	bounds1, boundsK []float64
}

// SeedOf takes the seed of a processor this package built, for a request
// of rank k under the normalized predicate where. nil means there is
// nothing to continue from: no pre-pass behind the processor (a stale
// snapshot, a full scan), a slice the pre-pass could not bound, or no
// processor seed at that rank.
func SeedOf(ctx context.Context, proc *queries.Processor, k int, where *textidx.Predicate) *Seed {
	cuts, b1, err := proc.SliceBounds(ctx, 1)
	if err != nil || len(cuts) < 2 || len(b1) != len(cuts)-1 {
		return nil
	}
	bk := b1
	if k > 1 {
		if _, bk, err = proc.SliceBounds(ctx, k); err != nil || len(bk) != len(b1) {
			return nil
		}
	}
	unbounded := func(u float64) bool { return math.IsInf(u, 1) }
	if slices.ContainsFunc(b1, unbounded) || slices.ContainsFunc(bk, unbounded) {
		return nil
	}
	ps := proc.Seed(k)
	if ps == nil {
		return nil
	}
	return &Seed{proc: ps, where: where, cuts: cuts, bounds1: b1, boundsK: bk}
}

// Verdict is what Revise did with a seed: continued it, or why not.
type Verdict uint8

const (
	// Patched: the levels stand and the successor was assembled.
	Patched Verdict = iota
	// NoSeed: the last evaluation left nothing to continue from.
	NoSeed
	// QueryMoved: the batch changed the query object inside the window (or
	// removed it) — every distance function is a different one.
	QueryMoved
	// DefinerChanged: the batch changed, removed or filtered out an object
	// that defines a maintained level.
	DefinerChanged
	// BelowLevel: a changed object's function now reaches the rank's level
	// somewhere, so the level itself moves.
	BelowLevel
	// Uncovered: a changed object no longer covers the window (or the
	// successor could not be assembled); the from-scratch path reports it.
	Uncovered

	// Verdicts is the number of verdicts, for histograms indexed by one.
	Verdicts
)

var verdictNames = [Verdicts]string{"patched", "no_seed", "query_moved", "definer_changed", "below_level", "uncovered"}

func (v Verdict) String() string { return verdictNames[v] }

// Revise is the one place that decides whether a standing question's last
// evaluation may be continued across an update batch, and continues it.
//
// Let S be the seed's scan set, B the bounds it was swept against, and C
// the batch's objects that changed for this question: motion inside the
// window revised, inserted, retired, or moved across the predicate. The
// seed is continued only if the query object is not in C, no member of C
// defines a maintained level (1..k), and — with S' = (S minus C) plus every
// member of C still in the (sub-)MOD that passes the sweep's own per-slice
// test, min distance <= B_i + 4r + Margin, on its live plan — no function
// of S' that C contributed reaches Level k anywhere. Anything else is
// evaluated from scratch, which is also what refreshes the bounds.
//
// Why the successor then answers exactly as a from-scratch processor over
// the current store: levels 1..k over S' are the same functions as before
// (the removed ones defined nothing, the added ones lie strictly above
// Level k, StrictlyAbove is exact), so they still sit under B. Every
// object outside S' is further than B_i + 4r + Margin from the query on
// every slice: the members of C by the test just made; the untouched ones
// because the seed's sweep found them so, or — changed by an earlier batch
// that did not reach this function — because the continuous layer's dirty
// test proved them outside the wider B_i + 6r + Margin before skipping
// that batch. So S' is a conservative superset of the rank-k zone, which
// is all a pruned processor asks of its survivors. The zone rows of S
// minus C are a pure function of unchanged bits (same function, same
// level); only the rows of what C contributed are left to compute.
//
// store must be at the version applied produced: the caller serializes
// batches (the hub's lock). The returned version is the snapshot's, the one
// the successor is valid at.
func Revise(ctx context.Context, store *mod.Store, seed *Seed, applied []mod.Applied) (*queries.Processor, uint64, Verdict) {
	if seed == nil {
		return nil, 0, NoSeed
	}
	ps := seed.proc
	tb, te, k := ps.Tb, ps.Te, ps.Rank
	var changed []int64
	for _, a := range applied {
		crossed := seed.where != nil && a.TagsChanged && seed.where.Matches(a.Tags) != seed.where.Matches(a.PrevTags)
		if a.ChangedFrom < te || crossed {
			changed = append(changed, a.OID)
		}
	}
	slices.Sort(changed)
	changed = slices.Compact(changed)
	if _, hit := slices.BinarySearch(changed, ps.Query.OID); hit {
		return nil, 0, QueryMoved
	}
	for _, oid := range changed {
		for _, lv := range ps.Levels {
			if lv.Func(oid) != nil {
				return nil, 0, DefinerChanged
			}
		}
	}

	// The batch's objects as they stand now: one consistent snapshot.
	u := queries.Universe{}
	var version uint64
	if seed.where == nil {
		v := store.View()
		u.Trajs, version = v.Trajs, v.Version
	} else {
		v, where := store.TaggedView(), seed.where
		u.Trajs, version = v.Trajs, v.Version
		u.Member = func(oid int64) bool {
			i, ok := slices.BinarySearch(v.OIDs, oid)
			return ok && where.Matches(v.Tags[i])
		}
	}
	i, ok := slices.BinarySearchFunc(u.Trajs, ps.Query.OID, func(tr *trajectory.Trajectory, id int64) int { return cmp.Compare(tr.OID, id) })
	if !ok {
		return nil, 0, QueryMoved
	}
	q := u.Trajs[i]

	// Which of C are in S' — the sweep's own test, against the seed's
	// bounds — and whether their functions keep clear of Level k.
	s := &Sweep{r: ps.R, q: q, tb: tb, te: te, cuts: seed.cuts, qpos: make([]geom.Point, len(seed.cuts))}
	for i, t := range seed.cuts {
		s.qpos[i] = q.At(t)
	}
	sc := scratchPool.Get().(*sweepScratch)
	defer scratchPool.Put(sc)
	sc.begin(len(seed.bounds1), 0)
	var joined []queries.SeedEntry
	for _, oid := range changed {
		tr := u.Find(oid, q.OID)
		if tr == nil {
			continue // retired, or outside the predicate: gone from S, nothing joins
		}
		if envelope.CheckWindow(tr, q, tb, te) != nil {
			return nil, 0, Uncovered
		}
		joined = append(joined, queries.SeedEntry{Traj: tr})
	}
	s.limits(sc, seed.bounds1)
	for i := range joined {
		joined[i].Level1 = s.entersZone(joined[i].Traj, sc)
	}
	if k > 1 {
		s.limits(sc, seed.boundsK)
	}
	inBasis := func(e queries.SeedEntry) bool { return e.Level1 || (k > 1 && s.entersZone(e.Traj, sc)) }
	joined = slices.DeleteFunc(joined, func(e queries.SeedEntry) bool { return !inBasis(e) })
	fresh := make([]*envelope.DistanceFunc, len(joined))
	for i, e := range joined {
		f, err := envelope.NewDistanceFunc(e.Traj.OID, e.Traj, q, tb, te)
		if err != nil {
			return nil, 0, Uncovered
		}
		if !envelope.StrictlyAbove(f, ps.Levels[k-1]) {
			return nil, 0, BelowLevel
		}
		fresh[i] = f
	}

	next := *ps
	next.Query = q
	next.Entries = make([]queries.SeedEntry, 0, len(ps.Entries)+len(joined))
	for _, e := range ps.Entries {
		for len(joined) > 0 && joined[0].Traj.OID < e.Traj.OID {
			next.Entries, joined = append(next.Entries, joined[0]), joined[1:]
		}
		if _, gone := slices.BinarySearch(changed, e.Traj.OID); !gone {
			next.Entries = append(next.Entries, e)
		}
	}
	next.Entries = append(next.Entries, joined...)
	if len(next.Entries) == 0 {
		return nil, 0, Uncovered
	}
	proc, err := queries.NewSuccessor(&next, q, fresh, u)
	if err != nil {
		return nil, 0, Uncovered
	}

	// Ranks the seed does not maintain open a sweep session of their own on
	// first use. If the store has moved on by then, the session speaks
	// about another snapshot; keeping every candidate is always sound.
	// (The closures copy what they need: a successor outlives the seed it
	// came from, and must not pin its entries and rows.)
	where, cuts, bounds1, boundsK, pl := seed.where, seed.cuts, seed.bounds1, seed.boundsK, ps.Pool
	open := sync.OnceValue(func() *Sweep {
		sw := newSweep(store, q, tb, te, where)
		sw.pool = pl
		return sw
	})
	proc.SetRankExpander(func(ctx context.Context, rank int) ([]int64, error) {
		if sw := open(); !sw.stale && sw.view.Version == version {
			ids, _, _, err := sw.zone(ctx, rank)
			return ids, err
		}
		return proc.CandidateOIDs(), nil
	})
	proc.SetSliceBounds(func(ctx context.Context, rank int) ([]float64, []float64, error) {
		switch rank {
		case 1:
			return cuts, bounds1, nil
		case k:
			return cuts, boundsK, nil
		}
		if sw := open(); !sw.stale && sw.view.Version == version {
			rb, err := sw.rankBounds(ctx, rank)
			return sw.cuts, rb.bounds, err
		}
		return nil, nil, nil
	})
	return proc, version, Patched
}
