package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/pool"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// Options tunes router construction.
type Options struct {
	// Engine supplies the worker pool the router evaluates its gathered
	// unions on, the whole-MOD filters included (no shard refines); nil
	// means a fresh engine with one worker per CPU. A union is transient
	// and never enters the engine's processor memo, so an engine shared
	// with an embedded store keeps its memo for that store.
	Engine *engine.Engine
	// Degraded switches shard failures from call-fatal to partial: a
	// scatter that loses shards (past the shards' own retry budgets)
	// merges the replies it has and marks the result
	// Explain.Degraded/MissingShards instead of failing. An answer that
	// loses every shard, or the query trajectory's only copy, still
	// fails. Off by default: exact cluster-wide answers are the router's
	// headline contract.
	Degraded bool
}

// Router implements the exact Engine.Do/DoBatch contract over K shards:
// scatter, two-phase NN bound exchange, a gather of the survivors into
// one union store, and refinement of that union on the router's own
// engine. It is safe for concurrent use (per-call state only; the inner
// engine is itself concurrent-safe) and meant to be long-lived.
type Router struct {
	shards   []Shard
	inner    *engine.Engine
	spec     mod.PDFSpec
	degraded bool
}

// NewRouter validates the shard set (non-empty, one shared uncertainty
// model) and returns a router over it. ctx bounds the validation round
// trips; nil means context.Background().
func NewRouter(ctx context.Context, shards []Shard, opts Options) (*Router, error) {
	if len(shards) == 0 {
		return nil, ErrNoShards
	}
	if ctx == nil {
		ctx = context.Background()
	}
	inner := opts.Engine
	if inner == nil {
		inner = engine.New(0)
	}
	// Remote shards learn their slot so ShardUnavailableError can report
	// which shard of the cluster went dark.
	for i, s := range shards {
		if rs, ok := s.(*RemoteShard); ok {
			rs.setIndex(i)
		}
	}
	spec, err := shards[0].Spec(ctx)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s: %w", shards[0].Name(), err)
	}
	for _, s := range shards[1:] {
		sp, err := s.Spec(ctx)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %s: %w", s.Name(), err)
		}
		if sp != spec {
			return nil, fmt.Errorf("%w: %s has %+v, %s has %+v",
				ErrSpecMismatch, shards[0].Name(), spec, s.Name(), sp)
		}
	}
	return &Router{shards: shards, inner: inner, spec: spec, degraded: opts.Degraded}, nil
}

// Shards reports the cluster size.
func (r *Router) Shards() int { return len(r.shards) }

// gathered is the outcome of one scatter/gather round: the transient
// union store of global-zone survivors (plus the query trajectory and
// any fetched targets), the per-shard provenance, the filter domain the
// central refine verifies, and the one processor every request of the
// round evaluates on. q and bounds carry the bound exchange's
// inputs/outputs so the continuous layer can derive a subscription zone
// profile from the same round instead of re-running the exchange.
type gathered struct {
	store   *mod.Store
	shardEx []engine.Explain
	// domain lists, sorted and non-nil, the survivor OIDs the shards
	// contributed to the union store, excluding the query trajectory and
	// any later-fetched targets. Built once per gather: a batch shares the
	// round across requests, and the whole-MOD filter kinds evaluate on it
	// as their candidate domain.
	domain []int64
	// proc is the whole build over store (every object, no pre-pass, no
	// memo), made the first time a request needs it and again when a
	// fetched target has moved the store past procAt, its version then.
	proc    *queries.Processor
	procAt  uint64
	k       int
	targets map[int64]bool // target OIDs already resolved (found or not)
	// nonMatch marks resolved targets that exist in the cluster but fail
	// the gather's predicate: they are NOT inserted into the union store
	// (sub-MOD semantics), and the dispatcher answers false for them
	// without consulting the inner engine — the same short-circuit the
	// single-store engine draws before building a processor.
	nonMatch map[int64]bool
	q        *trajectory.Trajectory
	bounds   []float64
	// missing lists, sorted, the shard indexes this round went without
	// (degraded routers only; always nil on strict routers, where a lost
	// shard fails the round instead).
	missing []int
}

// processor returns the round's whole build over its union for the
// window [tb, te], building it on pl (the inner engine's pool) on first
// use and after the union grew; reused reports that an earlier request of
// the round built it.
func (g *gathered) processor(ctx context.Context, pl *pool.Pool, tb, te float64) (proc *queries.Processor, reused bool, err error) {
	if v := g.store.Version(); g.proc == nil || g.procAt != v {
		if g.proc, err = queries.NewProcessorOn(ctx, pl, g.store.All(), g.q, tb, te, g.store.Radius(), nil, nil); err != nil {
			return nil, false, err
		}
		g.procAt = v
		return g.proc, false, nil
	}
	return g.proc, true, nil
}

// Do evaluates one request across the shards. The contract matches
// Engine.Do exactly: same validation, same typed errors, same answer
// bytes; the Explain additionally carries Shards and ShardExplains.
func (r *Router) Do(ctx context.Context, req engine.Request) (engine.Result, error) {
	if r == nil {
		return engine.Result{Kind: req.Kind, Err: ErrNoRouter}, ErrNoRouter
	}
	if ctx == nil {
		ctx = context.Background()
	}
	res, _, err := r.dispatch(ctx, req, req.Rank(), nil)
	return res, err
}

// DoBatch evaluates the requests in order under engine.RunBatch's
// contract, the one Engine.DoBatch keeps: the members on one engine.Key
// share one bound exchange at their deepest rank and one whole build of
// its union.
func (r *Router) DoBatch(ctx context.Context, reqs []engine.Request) ([]engine.Result, error) {
	if r == nil {
		return nil, ErrNoRouter
	}
	rounds := make(map[engine.Key]*gathered)
	return engine.RunBatch(ctx, reqs, func(ctx context.Context, req engine.Request, rank int) (engine.Result, error) {
		res, _, err := r.dispatch(ctx, req, rank, rounds)
		return res, err
	})
}

// dispatch normalizes one request, failing it if Normalize does, and runs
// it: pick or perform the gather its kind needs at rank k (the request's
// own rank, or a batch's deepest on its Key), evaluate on the gather's
// processor, and decorate the Explain with shard provenance. rounds, when
// non-nil, keeps the gathered rounds across a batch's members. The
// gathered round is returned alongside the result so the continuous layer
// can fingerprint the request from the same exchange (nil on failure and
// on the per-query-object all-pairs/reverse path).
func (r *Router) dispatch(ctx context.Context, req engine.Request, k int, rounds map[engine.Key]*gathered) (engine.Result, *gathered, error) {
	res := engine.Result{Kind: req.Kind}
	res.Explain.Workers = r.inner.Workers()
	res.Explain.Shards = len(r.shards)
	start := time.Now()
	fail := func(err error) (engine.Result, *gathered, error) {
		res.Err = err
		res.Explain.Wall = time.Since(start)
		return res, nil, err
	}
	req, err := req.Normalize()
	if err != nil {
		return fail(err)
	}
	if err := pool.CtxErr(ctx); err != nil {
		return fail(err)
	}
	if !req.Kind.NeedsProcessor() {
		inner, err := r.perQueryObject(ctx, req)
		inner.Explain.Shards = len(r.shards)
		inner.Explain.Workers = r.inner.Workers()
		inner.Explain.Wall = time.Since(start)
		return inner, nil, err
	}
	key := req.Key()
	g, ok := rounds[key]
	if !ok || g.k < k {
		if g, err = r.gather(ctx, key, k, req.Where); err != nil {
			return fail(err)
		}
		if rounds != nil {
			rounds[key] = g
		}
	}
	if oid, ok := req.Target(); ok {
		if err := r.ensureTarget(ctx, g, oid, req.Where); err != nil {
			return fail(err)
		}
		if g.nonMatch[oid] {
			// The target exists but fails the predicate: under sub-MOD
			// semantics it is simply not in the query's universe, so every
			// single-object kind answers false — before any refinement.
			res.IsBool = true
			res.Explain.ShardExplains = g.shardEx
			r.applyDegraded(&res.Explain, g.missing)
			res.Explain.Wall = time.Since(start)
			return res, g, nil
		}
	}
	var inner engine.Result
	if req.EnumeratesCandidates() {
		inner, err = r.enumerate(ctx, g, req)
	} else {
		// The union is exactly what the exchange kept, so this is the
		// verify half of filter-and-verify: one whole build, no pre-pass
		// over it, and the filter visits only the survivors (globally
		// pruned objects, fetched targets included, answer false on every
		// filter kind). The union is already the predicate's sub-MOD (the
		// exchange filtered at the shards) but carries no tags, so the
		// predicate must not travel further.
		proc, reused, perr := g.processor(ctx, r.inner.Pool(), req.Tb, req.Te)
		if perr != nil {
			return fail(perr)
		}
		var own []int64
		if req.Kind.IsWholeMODFilter() {
			own = g.domain
		}
		creq := req
		creq.Where = nil
		inner, err = r.inner.Evaluate(ctx, g.store, proc, creq, own)
		inner.Explain.MemoHit = reused
		inner.Explain.ShardExplains = g.shardEx
		r.applyDegraded(&inner.Explain, g.missing)
	}
	inner.Explain.Shards = len(r.shards)
	inner.Explain.Wall = time.Since(start)
	return inner, g, err
}

// enumerate answers a request whose answer is its whole candidate set
// (engine.Request.EnumeratesCandidates): every object of the (sub-)MOD
// but the query, near or far. The union store holds only the exchange's
// survivors, so the list is the union of the shards' OID sets.
func (r *Router) enumerate(ctx context.Context, g *gathered, req engine.Request) (engine.Result, error) {
	res := engine.Result{Kind: req.Kind}
	res.Explain.Workers = r.inner.Workers()
	lists, failed, err := scatter(ctx, r.shards, r.degraded, func(ctx context.Context, _ int, s Shard) ([]int64, error) {
		return s.OIDs(ctx, req.Where)
	})
	if err != nil {
		res.Err = err
		return res, err
	}
	oids := slices.Compact(mergeSorted(lists))
	res.OIDs = slices.DeleteFunc(oids, func(oid int64) bool { return oid == g.q.OID })
	res.Explain.Candidates = len(res.OIDs)
	res.Explain.Survivors = g.store.Len() - 1
	res.Explain.ShardExplains = g.shardEx
	r.applyDegraded(&res.Explain, mergeMissing(g.missing, missingOf(failed)))
	return res, nil
}

// mergeSorted k-way merges ascending disjoint OID lists into one
// ascending list (nil when empty, matching the engine's no-answer shape).
func mergeSorted(lists [][]int64) []int64 {
	var out []int64
	for {
		best := -1
		for i, l := range lists {
			if len(l) == 0 {
				continue
			}
			if best < 0 || l[0] < lists[best][0] {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
}

// gather runs the two-phase bound exchange for one Key at rank k and
// builds the round's transient refinement store. where must be canonical
// and agree with key.Where — it restricts the exchange to the
// predicate's sub-MOD (the query itself stays exempt at the shards).
func (r *Router) gather(ctx context.Context, key engine.Key, k int, where *textidx.Predicate) (*gathered, error) {
	q, _, err := r.getTrajectory(ctx, key.QueryOID)
	if err != nil {
		if errors.Is(err, mod.ErrNotFound) {
			// Same typed error as the single-store engine, whose
			// processor lookup surfaces store.Get's mod.ErrNotFound for
			// an unknown query trajectory (engine.ErrUnknownOID is the
			// unknown-*target* sentinel); callers match errors.Is the
			// same way on either route — the equivalence suite pins both
			// identities.
			return nil, fmt.Errorf("cluster: query trajectory: %w", err)
		}
		return nil, err
	}
	bounds, phase2, missing, err := r.exchange(ctx, q, key.Tb, key.Te, k, where)
	if err != nil {
		return nil, err
	}

	// Refinement store: the query plus every shard's survivors. Survivor
	// sets are disjoint under a disjoint partitioning; replicated objects
	// (a loader quirk, not an error) keep their first copy.
	store, err := mod.NewStore(r.spec)
	if err != nil {
		return nil, err
	}
	if err := store.Insert(q); err != nil {
		return nil, err
	}
	shardEx := make([]engine.Explain, len(r.shards))
	domain := []int64{}
	for si, reply := range phase2 {
		shardEx[si] = engine.Explain{
			Candidates: reply.stats.Candidates,
			Survivors:  reply.stats.Survivors,
			Wall:       reply.wall,
		}
		for _, tr := range reply.trs {
			if tr.OID == q.OID {
				continue
			}
			if _, err := store.Get(tr.OID); err == nil {
				continue
			}
			if err := store.Insert(tr); err != nil {
				return nil, err
			}
			domain = append(domain, tr.OID)
		}
	}
	slices.Sort(domain)
	return &gathered{store: store, shardEx: shardEx, domain: domain, k: k, targets: make(map[int64]bool), nonMatch: make(map[int64]bool), q: q, bounds: bounds, missing: missing}, nil
}

// survReply is one shard's phase-2 outcome; wall spans both exchange
// phases on that shard.
type survReply struct {
	trs   []*trajectory.Trajectory
	stats prune.Stats
	wall  time.Duration
}

// exchange runs the two-phase bound exchange for (q, [tb, te]) at rank k:
// phase 1 gathers per-slice local Level-k envelope bounds and mins them
// into a sound global bound; phase 2 broadcasts it and gathers each
// shard's global-zone survivors. Both gather() (which refines the
// survivors through an engine) and the continuous layer's zone profiles
// (which only need the bounds and survivor IDs) build on it.
//
// On a degraded router, shards lost in either phase are masked out and
// reported in missing: a phase-1 absence only loosens the global bound
// (the min over the replying shards still upper-bounds the global
// envelope, so pruning stays sound — the zone just keeps more
// survivors), and a phase-2 absence drops that shard's objects from the
// round entirely, which is the documented degraded-answer semantics.
func (r *Router) exchange(ctx context.Context, q *trajectory.Trajectory, tb, te float64, k int, where *textidx.Predicate) ([]float64, []survReply, []int, error) {
	cuts := prune.SliceCuts(q, tb, te)
	nSlices := len(cuts) - 1

	type boundsReply struct {
		bounds []float64
		wall   time.Duration
	}
	phase1, failed1, err := scatter(ctx, r.shards, r.degraded, func(ctx context.Context, _ int, s Shard) (boundsReply, error) {
		t0 := time.Now()
		bs, err := s.Bounds(ctx, q, tb, te, k, where)
		return boundsReply{bounds: bs, wall: time.Since(t0)}, err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	global := make([]float64, nSlices)
	for i := range global {
		global[i] = math.Inf(1)
	}
	for si, reply := range phase1 {
		if failed1[si] != nil {
			continue
		}
		if len(reply.bounds) != nSlices {
			return nil, nil, nil, fmt.Errorf("%w: shard %s returned %d bounds for %d slices",
				ErrProtocol, r.shards[si].Name(), len(reply.bounds), nSlices)
		}
		for i, b := range reply.bounds {
			if b < global[i] {
				global[i] = b
			}
		}
	}

	phase2, failed2, err := scatter(ctx, r.shards, r.degraded, func(ctx context.Context, i int, s Shard) (survReply, error) {
		t0 := time.Now()
		trs, stats, err := s.Survivors(ctx, q, tb, te, global, where)
		return survReply{trs: trs, stats: stats, wall: phase1[i].wall + time.Since(t0)}, err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// A shard lost in phase 2 contributes no survivors; make sure a stale
	// phase-2 value cannot masquerade as an empty reply.
	for si, err := range failed2 {
		if err != nil {
			phase2[si] = survReply{}
		}
	}
	return global, phase2, mergeMissing(missingOf(failed1), missingOf(failed2)), nil
}

// perQueryObject answers the all-pairs and reverse kinds on the engine's
// per-query-object loop: the shards' OID sets are unioned (cheap — IDs,
// not trajectories), and every query object runs its own bound exchange
// and a whole build of its gathered union, so per-object gathered state is
// its survivor set rather than the entire MOD. Answers match the central
// engine exactly: per query object the union store's envelope equals the
// global envelope, so UQ31/UQ11 over it reproduce the single-store loop.
func (r *Router) perQueryObject(ctx context.Context, req engine.Request) (engine.Result, error) {
	type oidsReply struct {
		oids []int64
		wall time.Duration
	}
	replies, failedOIDs, err := scatter(ctx, r.shards, r.degraded, func(ctx context.Context, _ int, s Shard) (oidsReply, error) {
		t0 := time.Now()
		ids, err := s.OIDs(ctx, req.Where)
		return oidsReply{oids: ids, wall: time.Since(t0)}, err
	})
	if err != nil {
		return engine.Result{Kind: req.Kind, Err: err}, err
	}
	// missing accumulates every shard any round of this request went
	// without: the OID union scatter here, plus the per-object gathers
	// below (guarded by missingMu — they run on the worker pool).
	missing := missingOf(failedOIDs)
	var missingMu sync.Mutex
	lists := make([][]int64, len(replies))
	shardEx := make([]engine.Explain, len(replies))
	for i, reply := range replies {
		if failedOIDs[i] != nil {
			continue
		}
		lists[i] = reply.oids
		n := len(reply.oids)
		shardEx[i] = engine.Explain{Candidates: n, Survivors: n, Wall: reply.wall}
	}
	// Replicated objects (a loader quirk, not an error) appear once.
	union := slices.Compact(mergeSorted(lists))

	// The reverse target is resolved once, before the loop, and put in
	// every per-object union store so UQ11 never reports it unknown.
	var target *trajectory.Trajectory
	tags := func(oid int64) ([]string, error) {
		tr, ts, err := r.getTrajectory(ctx, oid)
		target = tr
		return ts, err
	}
	key := req.Key()
	build := func(ctx context.Context, qOID int64) (*queries.Processor, error) {
		// One fresh per-object exchange, kept in no batch's rounds: those
		// belong to the sequential member loop, and these gathers run
		// side by side on the worker pool.
		key := key
		key.QueryOID = qOID
		g, err := r.gather(ctx, key, 1, req.Where)
		if err != nil {
			return nil, err
		}
		if len(g.missing) > 0 {
			missingMu.Lock()
			missing = mergeMissing(missing, g.missing)
			missingMu.Unlock()
		}
		if target != nil {
			if _, err := g.store.Get(target.OID); err != nil {
				if err := g.store.Insert(target); err != nil {
					return nil, err
				}
			}
		}
		proc, _, err := g.processor(ctx, r.inner.Pool(), req.Tb, req.Te)
		return proc, err
	}
	res, err := r.inner.PerQueryObject(ctx, req, union, tags, build)
	res.Explain.ShardExplains = shardEx
	r.applyDegraded(&res.Explain, missing)
	return res, err
}

// ensureTarget makes sure a single-object kind's target trajectory is in
// the refinement store when it exists anywhere in the cluster AND matches
// the gather's predicate: a matching target outside the survivor set must
// still answer false (it exists but cannot be the NN), not ErrUnknownOID
// — the distinction the single-store pruned processor draws. A target
// absent from every shard is left absent so the inner engine reports the
// same ErrUnknownOID a single store would; an existing target that fails
// the predicate is recorded in g.nonMatch and kept OUT of the union store
// (it is not part of the sub-MOD), and the dispatcher answers false for
// it directly.
func (r *Router) ensureTarget(ctx context.Context, g *gathered, oid int64, where *textidx.Predicate) error {
	if g.targets[oid] {
		return nil
	}
	if _, err := g.store.Get(oid); err == nil {
		g.targets[oid] = true
		return nil
	}
	tr, tags, err := r.getTrajectory(ctx, oid)
	if err != nil {
		if errors.Is(err, mod.ErrNotFound) {
			g.targets[oid] = true // globally unknown: inner engine reports it
			return nil
		}
		return err
	}
	g.targets[oid] = true
	if where != nil && !where.Matches(tags) {
		g.nonMatch[oid] = true
		return nil
	}
	return g.store.Insert(tr)
}

// getTrajectory resolves an OID to its trajectory and tag set: one call
// to the shard Hash locates, and a broadcast when that shard misses —
// shard contents are data, not an invariant the router gets to assume.
// A located shard that answered "not found" is not asked again, so an
// unknown OID costs one lookup per shard; one that failed on a degraded
// router is, as the retry of a reply it may yet give.
func (r *Router) getTrajectory(ctx context.Context, oid int64) (*trajectory.Trajectory, []string, error) {
	loc := Hash{}.Locate(oid, len(r.shards))
	tr, tags, err := r.shards[loc].Get(ctx, oid)
	if err == nil {
		return tr, tags, nil
	}
	absent := errors.Is(err, mod.ErrNotFound)
	if !absent && !r.degraded {
		return nil, nil, fmt.Errorf("cluster: shard %s: %w", r.shards[loc].Name(), err)
	}
	// Absent there, or unreachable on a degraded router: a copy may live
	// elsewhere.
	type hit struct {
		tr   *trajectory.Trajectory
		tags []string
	}
	found, failed, err := scatter(ctx, r.shards, r.degraded, func(ctx context.Context, i int, s Shard) (hit, error) {
		if absent && i == loc {
			return hit{}, nil
		}
		tr, tags, err := s.Get(ctx, oid)
		if errors.Is(err, mod.ErrNotFound) {
			return hit{}, nil
		}
		return hit{tr: tr, tags: tags}, err
	})
	if err != nil {
		return nil, nil, err
	}
	for i, h := range found {
		if failed[i] == nil && h.tr != nil {
			return h.tr, h.tags, nil
		}
	}
	// Found nowhere. If any shard was unreachable, absence is unproven:
	// surface the shard failure, never a wrong ErrNotFound.
	for _, err := range failed {
		if err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, fmt.Errorf("%w: %d", mod.ErrNotFound, oid)
}

// scatter fans f across every shard concurrently and waits for all of
// them — implementations honor their context, so the wait is prompt and
// leaks nothing. failed[i] is shard i's failure, named after the shard
// (nil when it replied; out[i] is meaningful only then). The caller's
// context error takes precedence over any shard's: cancellation is
// call-fatal and callers match on it. Among shard failures a real one
// outranks the context noise, and the first in shard order wins.
//
// A strict round (degraded false) fails with a shard's failure, and the
// first failure cancels the siblings: their in-flight sweeps stop instead
// of running to completion just to be discarded, so failure latency is
// the first error, not the slowest shard. A degraded round masks failed
// shards out instead, cancels nobody, and fails only when every shard
// failed: a "partial" answer over zero shards is not an answer.
func scatter[T any](ctx context.Context, shards []Shard, degraded bool, f func(ctx context.Context, i int, s Shard) (T, error)) (out []T, failed []error, err error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out = make([]T, len(shards))
	failed = make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := pool.CtxErr(sctx)
			if err == nil {
				out[i], err = f(sctx, i, shards[i])
			}
			if err != nil {
				failed[i] = fmt.Errorf("cluster: shard %s: %w", shards[i].Name(), err)
				if !degraded {
					cancel()
				}
			}
		}(i)
	}
	wg.Wait()
	if err := pool.CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	var real, noise error
	replied := false
	for _, err := range failed {
		switch {
		case err == nil:
			replied = true
		case pool.IsCtxErr(err):
			noise = cmp.Or(noise, err)
		default:
			real = cmp.Or(real, err)
		}
	}
	if first := cmp.Or(real, noise); first != nil && !(degraded && replied) {
		return nil, nil, first
	}
	return out, failed, nil
}
