package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// Options tunes router construction.
type Options struct {
	// Partitioner decides placement and point-lookup routing; nil means
	// Hash{}.
	Partitioner Partitioner
	// Engine refines the gathered survivors of every kind, the whole-MOD
	// filters included (no shard refines); nil means a fresh engine with
	// one worker per CPU. Routers sharing an engine share its processor
	// memo.
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
	part     Partitioner
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
	part := opts.Partitioner
	if part == nil {
		part = Hash{}
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
	return &Router{shards: shards, part: part, inner: inner, spec: spec, degraded: opts.Degraded}, nil
}

// Shards reports the cluster size.
func (r *Router) Shards() int { return len(r.shards) }

// Partitioner reports the placement scheme.
func (r *Router) Partitioner() Partitioner { return r.part }

// gatherKey identifies one bound-exchange gather: a query trajectory, a
// window, and the canonical predicate key (empty when unfiltered) — a
// filtered exchange runs over a different sub-MOD, so its union store is
// not interchangeable with the unfiltered one. Rank rides separately so a
// batch's deepest rank widens one shared gather instead of repeating it
// per level.
type gatherKey struct {
	qOID   int64
	tb, te float64
	where  string
}

// gathered is the outcome of one scatter/gather round: the transient
// union store of global-zone survivors (plus the query trajectory and
// any fetched targets), the per-shard provenance, and the filter domain
// the central refine verifies. q and bounds carry the bound exchange's
// inputs/outputs so the continuous layer can derive a subscription zone
// profile from the same round instead of re-running the exchange.
type gathered struct {
	store   *mod.Store
	shardEx []engine.Explain
	// domain lists, sorted, the survivor OIDs the shards contributed to
	// the union store, excluding the query trajectory and any
	// later-fetched targets. Built once per gather: a batch shares the
	// round across requests, and the whole-MOD filter kinds read it as
	// DoRestricted's candidate domain.
	domain  []int64
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
	res, _, err := r.dispatch(ctx, req, make(map[gatherKey]*gathered), nil)
	return res, err
}

// DoBatch evaluates the requests in order, sharing one bound exchange per
// (query trajectory, window) group at the group's deepest rank, and the
// all-kinds gather across all-pairs/reverse members. Per-request failures
// are reported inside the matching Result; the batch itself only errors
// on a nil router or when ctx is canceled, in which case the context
// error is returned with the results completed so far — exactly the
// Engine.DoBatch contract.
func (r *Router) DoBatch(ctx context.Context, reqs []engine.Request) ([]engine.Result, error) {
	if r == nil {
		return nil, ErrNoRouter
	}
	if ctx == nil {
		ctx = context.Background()
	}
	maxK := make(map[gatherKey]int)
	for _, req := range reqs {
		if req.Validate() != nil || !req.Kind.NeedsProcessor() {
			continue
		}
		key := gatherKey{req.QueryOID, req.Tb, req.Te, req.Where.Canon().Key()}
		if k := req.Rank(); k > maxK[key] {
			maxK[key] = k
		}
	}
	caches := make(map[gatherKey]*gathered)
	out := make([]engine.Result, len(reqs))
	for i, req := range reqs {
		if err := queries.CtxErr(ctx); err != nil {
			return out[:i], err
		}
		res, _, err := r.dispatch(ctx, req, caches, maxK)
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return out[:i], err
		}
		out[i] = res
	}
	return out, nil
}

// dispatch runs one validated-or-failing request: pick or perform the
// gather its kind needs, refine the union on the router's engine, and
// decorate the Explain with shard provenance. The gathered round is
// returned alongside the result so the continuous layer can fingerprint
// the request from the same exchange (nil on failure and on the
// per-query-object all-pairs/reverse path).
func (r *Router) dispatch(ctx context.Context, req engine.Request, caches map[gatherKey]*gathered, maxK map[gatherKey]int) (engine.Result, *gathered, error) {
	res := engine.Result{Kind: req.Kind}
	res.Explain.Workers = r.inner.Workers()
	res.Explain.Shards = len(r.shards)
	start := time.Now()
	fail := func(err error) (engine.Result, *gathered, error) {
		res.Err = err
		res.Explain.Wall = time.Since(start)
		return res, nil, err
	}
	if err := req.Validate(); err != nil {
		return fail(err)
	}
	if err := queries.CtxErr(ctx); err != nil {
		return fail(err)
	}
	req.Where = req.Where.Canon()
	if !req.Kind.NeedsProcessor() {
		inner, err := r.perQueryObject(ctx, req)
		inner.Explain.Shards = len(r.shards)
		inner.Explain.Workers = r.inner.Workers()
		inner.Explain.Wall = time.Since(start)
		return inner, nil, err
	}
	key := gatherKey{req.QueryOID, req.Tb, req.Te, req.Where.Key()}
	k := req.Rank()
	if mk := maxK[key]; mk > k {
		k = mk
	}
	g, err := r.gather(ctx, key, k, caches, req.Where)
	if err != nil {
		return fail(err)
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
	// The union store is already the predicate's sub-MOD (the exchange
	// filtered at the shards) but carries no tags, so the predicate must
	// not travel further: refinement runs unfiltered over the union.
	creq := req
	creq.Where = nil
	var inner engine.Result
	switch {
	case req.EnumeratesCandidates():
		inner, err = r.enumerate(ctx, g, req)
	default:
		if req.Kind.IsWholeMODFilter() {
			// The union is exactly what the exchange kept, so this is the
			// verify half of filter-and-verify: no pre-pass over it, and
			// the filter visits only the survivors (globally pruned
			// objects, fetched targets included, answer false on every
			// filter kind).
			inner, err = r.inner.DoRestricted(ctx, g.store, creq, g.domain)
		} else {
			inner, err = r.inner.Do(ctx, g.store, creq)
		}
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
	lists, ok, err := scatterMode(r, ctx, func(ctx context.Context, _ int, s Shard) ([]int64, error) {
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
	r.applyDegraded(&res.Explain, mergeMissing(g.missing, missingOf(ok)))
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

// gather runs the two-phase bound exchange for one (query, window) at
// rank k, building the transient refinement store, or returns the cached
// round when a batch already paid for it at sufficient rank. where must
// be canonical and agree with key.where — it restricts the exchange to
// the predicate's sub-MOD (the query itself stays exempt at the shards).
func (r *Router) gather(ctx context.Context, key gatherKey, k int, caches map[gatherKey]*gathered, where *textidx.Predicate) (*gathered, error) {
	if g, ok := caches[key]; ok && g.k >= k {
		return g, nil
	}
	q, _, err := r.getTrajectory(ctx, key.qOID)
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
	bounds, phase2, missing, err := r.exchange(ctx, q, key.tb, key.te, k, where)
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
	var domain []int64
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
	g := &gathered{store: store, shardEx: shardEx, domain: domain, k: k, targets: make(map[int64]bool), nonMatch: make(map[int64]bool), q: q, bounds: bounds, missing: missing}
	caches[key] = g
	return g, nil
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
	phase1, ok1, err := scatterMode(r, ctx, func(ctx context.Context, _ int, s Shard) (boundsReply, error) {
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
		if !ok1[si] {
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

	phase2, ok2, err := scatterMode(r, ctx, func(ctx context.Context, i int, s Shard) (survReply, error) {
		t0 := time.Now()
		trs, stats, err := s.Survivors(ctx, q, tb, te, global, where)
		return survReply{trs: trs, stats: stats, wall: phase1[i].wall + time.Since(t0)}, err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	missing := mergeMissing(missingOf(ok1), missingOf(ok2))
	if len(missing) > 0 {
		// A shard lost in phase 2 contributes no survivors; make sure a
		// stale phase-2 zero value cannot masquerade as an empty reply.
		for _, si := range missing {
			if !ok2[si] {
				phase2[si] = survReply{}
			}
		}
	}
	return global, phase2, missing, nil
}

// perQueryObject answers the all-pairs and reverse kinds without the old
// whole-MOD gather: the shards' OID sets are unioned (cheap — IDs, not
// trajectories), and every query object runs its own bound exchange, so
// per-object gathered state is its survivor set rather than the entire
// MOD. Answers match the central engine exactly: per query object the
// union store's envelope equals the global envelope, so UQ31/UQ11 over
// it reproduce the single-store per-object loops.
func (r *Router) perQueryObject(ctx context.Context, req engine.Request) (engine.Result, error) {
	res := engine.Result{Kind: req.Kind}
	fail := func(err error) (engine.Result, error) {
		res.Err = err
		return res, err
	}
	type oidsReply struct {
		oids []int64
		wall time.Duration
	}
	replies, okOIDs, err := scatterMode(r, ctx, func(ctx context.Context, _ int, s Shard) (oidsReply, error) {
		t0 := time.Now()
		ids, err := s.OIDs(ctx, req.Where)
		return oidsReply{oids: ids, wall: time.Since(t0)}, err
	})
	if err != nil {
		return fail(err)
	}
	// missing accumulates every shard any round of this request went
	// without: the OID union scatter here, plus the per-object gathers
	// below (guarded by missingMu — they run on the worker pool).
	missing := missingOf(okOIDs)
	var missingMu sync.Mutex
	lists := make([][]int64, len(replies))
	shardEx := make([]engine.Explain, len(replies))
	for i, reply := range replies {
		if !okOIDs[i] {
			continue
		}
		lists[i] = reply.oids
		n := len(reply.oids)
		shardEx[i] = engine.Explain{Candidates: n, Survivors: n, Wall: reply.wall}
	}
	union := mergeSorted(lists)
	// Replicated objects (a loader quirk, not an error) appear once.
	union = slices.Compact(union)
	res.Explain.ShardExplains = shardEx

	// The reverse target must exist somewhere in the cluster, exactly like
	// the single-store engine's up-front store.Get — and it must be present
	// in every per-object union store so UQ11 never reports it unknown.
	var target *trajectory.Trajectory
	if req.Kind == engine.KindReverse {
		tr, tags, err := r.getTrajectory(ctx, req.OID)
		if err != nil {
			if errors.Is(err, mod.ErrNotFound) {
				return fail(fmt.Errorf("%w: %d", engine.ErrUnknownOID, req.OID))
			}
			return fail(err)
		}
		if req.Where != nil && !req.Where.Matches(tags) {
			// Sub-MOD semantics: an existing target outside the predicate's
			// universe has no possible reverse neighbors there — empty, not
			// an error, exactly like the single-store engine.
			res.Explain.Candidates = len(union)
			res.Explain.Survivors = res.Explain.Candidates
			r.applyDegraded(&res.Explain, missing)
			return res, nil
		}
		target = tr
	}

	sets := make([][]int64, len(union))
	keep := make([]bool, len(union))
	err = r.forEachIndex(ctx, len(union), func(i int) error {
		qOID := union[i]
		if target != nil && qOID == req.OID {
			return nil
		}
		// One fresh per-object exchange: the shared batch cache is keyed
		// per (query, window) and guarded by the sequential dispatch loop,
		// so the concurrent per-object gathers use private cache maps.
		g, err := r.gather(ctx, gatherKey{qOID, req.Tb, req.Te, req.Where.Key()}, 1, make(map[gatherKey]*gathered), req.Where)
		if err != nil {
			return fmt.Errorf("query %d: %w", qOID, err)
		}
		if len(g.missing) > 0 {
			missingMu.Lock()
			missing = mergeMissing(missing, g.missing)
			missingMu.Unlock()
		}
		if target != nil {
			if _, err := g.store.Get(target.OID); err != nil {
				if err := g.store.Insert(target); err != nil {
					return err
				}
			}
		}
		proc, err := r.inner.ProcessorWhereCtx(ctx, g.store, qOID, req.Tb, req.Te, nil)
		if err != nil {
			return fmt.Errorf("query %d: %w", qOID, err)
		}
		if target != nil {
			ok, err := proc.UQ11(target.OID)
			if err != nil {
				return err
			}
			keep[i] = ok
			return nil
		}
		sets[i] = proc.UQ31()
		return nil
	})
	if err != nil {
		return fail(err)
	}
	if target != nil {
		for i, oid := range union {
			if keep[i] {
				res.OIDs = append(res.OIDs, oid)
			}
		}
		res.Explain.Candidates = len(union) - 1
		res.Explain.Survivors = res.Explain.Candidates
		r.applyDegraded(&res.Explain, missing)
		return res, nil
	}
	res.Pairs = make(map[int64][]int64, len(union))
	for i, oid := range union {
		res.Pairs[oid] = sets[i]
	}
	res.Explain.Candidates = len(union)
	res.Explain.Survivors = len(union)
	r.applyDegraded(&res.Explain, missing)
	return res, nil
}

// forEachIndex runs fn(0..n-1) on a bounded worker pool sized to the
// inner engine, checking ctx between tasks — the router-side counterpart
// of the engine's per-OID fan-out, used by the per-query-object kinds.
// The first error wins; a context error takes precedence.
func (r *Router) forEachIndex(ctx context.Context, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	workers := r.inner.Workers()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := queries.CtxErr(ctx); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				mu.Lock()
				stop := ferr != nil
				mu.Unlock()
				if stop {
					continue
				}
				err := queries.CtxErr(ctx)
				if err == nil {
					err = fn(i)
				}
				if err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := queries.CtxErr(ctx); err != nil {
		return err
	}
	return ferr
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

// getTrajectory resolves an OID to its trajectory and tag set: one shard
// call when the partitioner can locate it, a broadcast otherwise (or when
// the located shard surprisingly misses — shard contents are data, not an
// invariant the router gets to assume).
func (r *Router) getTrajectory(ctx context.Context, oid int64) (*trajectory.Trajectory, []string, error) {
	if loc := r.part.Locate(oid, len(r.shards)); loc >= 0 && loc < len(r.shards) {
		tr, tags, err := r.shards[loc].Get(ctx, oid)
		if err == nil {
			return tr, tags, nil
		}
		if !errors.Is(err, mod.ErrNotFound) {
			if !r.degraded {
				return nil, nil, fmt.Errorf("cluster: shard %s: %w", r.shards[loc].Name(), err)
			}
			// Degraded: the located copy is unreachable, but a replica may
			// exist elsewhere — fall through to the broadcast.
		}
	}
	type hit struct {
		tr   *trajectory.Trajectory
		tags []string
	}
	var failMu sync.Mutex
	var firstFail error
	found, ok, err := scatterMode(r, ctx, func(ctx context.Context, i int, s Shard) (hit, error) {
		tr, tags, err := s.Get(ctx, oid)
		if err != nil && errors.Is(err, mod.ErrNotFound) {
			return hit{}, nil
		}
		if err != nil && r.degraded {
			failMu.Lock()
			if firstFail == nil {
				firstFail = fmt.Errorf("cluster: shard %s: %w", s.Name(), err)
			}
			failMu.Unlock()
		}
		return hit{tr: tr, tags: tags}, err
	})
	if err != nil {
		return nil, nil, err
	}
	for i, h := range found {
		if ok[i] && h.tr != nil {
			return h.tr, h.tags, nil
		}
	}
	// Found nowhere. If any shard was unreachable, absence is unproven:
	// surface the shard failure, never a wrong ErrNotFound.
	for i := range ok {
		if !ok[i] {
			failMu.Lock()
			defer failMu.Unlock()
			if firstFail != nil {
				return nil, nil, firstFail
			}
			return nil, nil, &ShardUnavailableError{Shard: i, Name: r.shards[i].Name(), Err: errors.New("no reply")}
		}
	}
	return nil, nil, fmt.Errorf("%w: %d", mod.ErrNotFound, oid)
}

// scatter fans f across every shard concurrently and waits for all of
// them — implementations honor their context, so the wait is prompt and
// leaks nothing. The first shard failure cancels the siblings (their
// in-flight sweeps stop instead of running to completion just to be
// discarded), and failure latency is the first error, not the slowest
// shard. The caller's context error takes precedence over shard errors
// (cancellation is call-fatal and callers match on the context error);
// among shard errors, a real failure outranks the context noise the
// sibling cancellation caused.
func scatter[T any](ctx context.Context, shards []Shard, f func(ctx context.Context, i int, s Shard) (T, error)) ([]T, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]T, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := queries.CtxErr(sctx); err != nil {
				errs[i] = err
				return
			}
			out[i], errs[i] = f(sctx, i, shards[i])
			if errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if err := queries.CtxErr(ctx); err != nil {
		return nil, err
	}
	var firstCtx error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if firstCtx == nil {
				firstCtx = fmt.Errorf("cluster: shard %s: %w", shards[i].Name(), err)
			}
			continue
		}
		return nil, fmt.Errorf("cluster: shard %s: %w", shards[i].Name(), err)
	}
	if firstCtx != nil {
		return nil, firstCtx
	}
	return out, nil
}
