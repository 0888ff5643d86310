// The unified context-aware query API: one declarative Request descriptor
// covering every continuous probabilistic NN variant of the paper's
// Section 4 (plus the Section 7 extensions), one Result envelope carrying
// the answer together with its Explain provenance, and a typed error
// taxonomy shared across layers. Engine.Do / Engine.DoBatch are the single
// execution route — every UQL statement compiles to a Request, and the
// modserver "query" op and the HTTP gateway carry Requests verbatim — and
// both honor
// context cancellation end-to-end: between per-OID worker tasks, between
// batch members, inside the index candidate pre-pass, and inside lazy
// envelope builds.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/envelope"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// Typed error taxonomy of the unified API. ErrUnknownOID, ErrBadRank and
// ErrBadFrac alias the queries package's sentinels so errors.Is matches one
// identity per failure across every layer; ErrBadKind and ErrNoEngine are
// declared in engine.go.
var (
	// ErrBadWindow reports a query window with te <= tb (or a NaN bound).
	// Request.Validate is the single place the check happens, so every
	// route — Do, the legacy facade, UQL, the wire protocol — rejects a
	// degenerate window identically instead of some constructors erroring
	// and others silently answering empty.
	ErrBadWindow = errors.New("engine: query window must satisfy tb < te")
	// ErrUnknownOID reports a target object absent from the store.
	ErrUnknownOID = queries.ErrUnknownOID
	// ErrBadRank reports a rank parameter k < 1 on a ranked kind.
	ErrBadRank = queries.ErrBadRank
	// ErrBadFrac reports a fraction or probability outside [0, 1].
	ErrBadFrac = queries.ErrBadFrac
	// ErrBadPredicate aliases the textidx sentinel so a malformed WHERE
	// clause (empty predicate, bad tag) matches one identity whether it is
	// rejected by the UQL parser, the gateway decoder, or Validate here.
	ErrBadPredicate = textidx.ErrBadPredicate
)

// Request is the declarative descriptor of one query: every variant the
// system answers is expressible as a Request, and every execution route
// reduces to Engine.Do(ctx, store, req). The struct is flat and
// JSON-serializable on purpose — it is the contract a shard router or
// network proxy forwards verbatim (the modserver "query" op carries it on
// the wire unchanged).
//
// Which fields matter depends on Kind: OID for the single-object kinds
// (Categories 1/2, the single-object instant kinds) and the KindReverse
// target; K for the ranked kinds; X for the >= X%-of-window kinds; T for
// the fixed-time kinds.
//
// P is the probability bound of UQL's `ProbabilityNN(o, TrQ, Time) > p`
// on the Category 1/3 and fixed-time kinds (UQ11-13, UQ31-33, NN@,
// ALLNN@); every other kind takes P = 0. P = 0 is the possible-NN answer
// (membership in the 4r zone). 0 < P < 1 reduces the times the object's
// sampled P^NN is at least P (the paper's Section 7 threshold query), and
// P = 1 is CertainNN: the times its farthest possible distance stays
// below every other object's nearest possible one. The kind's quantifier
// applies to those times as it does to zone membership.
type Request struct {
	Kind     Kind    `json:"kind"`
	QueryOID int64   `json:"query_oid,omitempty"`
	Tb       float64 `json:"tb"`
	Te       float64 `json:"te"`
	OID      int64   `json:"oid,omitempty"`
	K        int     `json:"k,omitempty"`
	X        float64 `json:"x,omitempty"`
	T        float64 `json:"t,omitempty"`
	P        float64 `json:"p,omitempty"`

	// Where restricts the query to the sub-MOD of objects whose tag sets
	// satisfy the predicate (see textidx.Predicate). Filtered-out objects
	// do not block, do not shape the envelope, and cannot answer: the
	// result is byte-identical to running the same request against a store
	// holding only the matching trajectories (plus the query trajectory,
	// which is exempt — a query *about* a non-matching object over the
	// matching fleet is well-formed). nil means unfiltered.
	Where *textidx.Predicate `json:"where,omitempty"`
}

// Rank returns the request's effective envelope level: K for the ranked
// kinds, 1 otherwise. A cluster router uses it to size the bound-exchange
// phases (the Level-k bound covers every level below it).
func (r Request) Rank() int {
	if in, _ := r.Kind.info(); in.ranked {
		return r.K
	}
	return 1
}

// EnumeratesCandidates reports whether the request's answer is its whole
// candidate set: an "at least X of the window" retrieval whose requirement
// rounds to zero length holds for every object of the (sub-)MOD, near or
// far, at every probability bound (an empty interval set meets a zero
// requirement). Such an answer changes with every insertion, retirement
// and predicate crossing anywhere — geometry cannot bound what it depends
// on.
func (r Request) EnumeratesCandidates() bool {
	return (r.Kind == KindUQ33 || r.Kind == KindUQ43) && queries.TrivialFraction(r.X, r.Tb, r.Te)
}

// Validate checks the request's static well-formedness: a known kind, an
// increasing window, a rank >= 1 on ranked kinds, fractions and
// probabilities in [0, 1], and P > 0 only on the kinds that take a
// probability bound. It is the centralized window check — every execution
// route calls it before touching the store.
func (r Request) Validate() error {
	in, ok := r.Kind.info()
	if !ok {
		return fmt.Errorf("%w: %q", ErrBadKind, r.Kind)
	}
	if math.IsNaN(r.Tb) || math.IsNaN(r.Te) || !(r.Te > r.Tb) {
		return fmt.Errorf("%w: [%g, %g]", ErrBadWindow, r.Tb, r.Te)
	}
	if r.Rank() < 1 {
		return fmt.Errorf("%w: got %d", ErrBadRank, r.K)
	}
	switch r.Kind {
	case KindUQ13, KindUQ23, KindUQ33, KindUQ43:
		if r.X < 0 || r.X > 1 || math.IsNaN(r.X) {
			return fmt.Errorf("%w: x=%g", ErrBadFrac, r.X)
		}
	}
	if r.P < 0 || r.P > 1 || math.IsNaN(r.P) {
		return fmt.Errorf("%w: p=%g", ErrBadFrac, r.P)
	}
	if r.P > 0 && !in.prob {
		return fmt.Errorf("%w: %s takes no probability bound, got p=%g", ErrBadKind, r.Kind, r.P)
	}
	if err := r.Where.Validate(); err != nil {
		return err
	}
	return nil
}

// Explain is the per-query execution provenance carried inside every
// Result, so answer and statistics cross API seams together.
type Explain struct {
	// Candidates is the number of non-query objects considered.
	Candidates int `json:"candidates"`
	// Survivors is how many candidates outlived the index candidate
	// pre-pass (== Candidates when the pre-pass is disabled or the kind
	// does not use one preprocessing).
	Survivors int `json:"survivors"`
	// MemoHit reports that the envelope preprocessing was reused from the
	// engine's memo instead of rebuilt.
	MemoHit bool `json:"memo_hit"`
	// Workers is the engine's worker-pool size.
	Workers int `json:"workers"`
	// Wall is the end-to-end evaluation time of this request
	// (JSON-encoded in nanoseconds).
	Wall time.Duration `json:"wall_ns"`

	// TextualCandidates is the size of the predicate-matching candidate
	// set — the universe the query actually ran over; zero (omitted) on
	// unfiltered requests. Comparing it against SpatialCandidates shows
	// how much the textual intersection shaved off before any envelope
	// was built.
	TextualCandidates int `json:"textual_candidates,omitempty"`
	// SpatialCandidates is the unfiltered candidate population (every
	// non-query object in the store) on a predicate request; zero
	// (omitted) on unfiltered requests.
	SpatialCandidates int `json:"spatial_candidates,omitempty"`

	// Refined is the size of the restricted candidate domain a
	// DoRestricted refine evaluated: on a cluster router's whole-MOD
	// filter answer, the survivors its bound exchange gathered; zero on
	// unrestricted paths.
	Refined int `json:"refined,omitempty"`
	// RefineWall is the time that restricted refine took: on a cluster
	// router, its central refine of the gathered union; zero otherwise.
	RefineWall time.Duration `json:"refine_wall_ns,omitempty"`

	// Shards is the number of shards a cluster router scattered this
	// request across; zero on single-engine paths.
	Shards int `json:"shards,omitempty"`
	// ShardExplains carries one provenance entry per shard when a cluster
	// router merged this result (candidates seen and survivors returned by
	// that shard's bound-exchange sweep, plus its scatter wall time); nil
	// on single-engine paths. Entries never nest further: a shard reports
	// leaf statistics only.
	ShardExplains []Explain `json:"shard_explains,omitempty"`

	// Degraded reports that a cluster router answered this request without
	// every shard: some scatters failed past their retry budget and the
	// router (configured for degraded serving) merged the shards that did
	// reply. A degraded answer is a sound answer over the reachable
	// partitions only — objects homed on the missing shards are absent, so
	// NN-family answers may over-answer relative to the full cluster (the
	// global envelope min skips the missing shards' objects).
	Degraded bool `json:"degraded,omitempty"`
	// MissingShards names the shards whose replies the degraded merge went
	// without, in shard order; nil when Degraded is false.
	MissingShards []string `json:"missing_shards,omitempty"`
}

// Result is the unified answer envelope. Exactly one of Bool / OIDs /
// Pairs is meaningful, per the request kind (IsBool marks the predicate
// kinds; Pairs is only set by KindAllPairs). Err carries the per-request
// evaluation error so a bad batch member does not poison its siblings; it
// is excluded from JSON, wire adapters serialize it as a string.
type Result struct {
	Kind   Kind              `json:"kind"`
	IsBool bool              `json:"is_bool,omitempty"`
	Bool   bool              `json:"bool,omitempty"`
	OIDs   []int64           `json:"oids,omitempty"`
	Pairs  map[int64][]int64 `json:"pairs,omitempty"`

	Explain Explain `json:"explain"`
	Err     error   `json:"-"`
}

// Do evaluates one request against the store. It is the single execution
// route of the system: validation, the memoized (and index-pruned)
// envelope preprocessing, worker-pool fan-out for the whole-MOD kinds, and
// Explain accounting all happen here. ctx cancellation is honored between
// per-OID worker tasks and inside the preprocessing; a nil ctx means
// context.Background(). On error the returned Result carries the same
// error in Err, with whatever Explain fields were established.
func (e *Engine) Do(ctx context.Context, store *mod.Store, req Request) (Result, error) {
	if e == nil {
		return Result{Kind: req.Kind, Err: ErrNoEngine}, ErrNoEngine
	}
	if ctx == nil {
		ctx = context.Background()
	}
	res := Result{Kind: req.Kind}
	res.Explain.Workers = e.workers
	start := time.Now()
	fail := func(err error) (Result, error) {
		res.Err = err
		res.Explain.Wall = time.Since(start)
		return res, err
	}
	if err := req.Validate(); err != nil {
		return fail(err)
	}
	req.Where = req.Where.Canon()
	if err := queries.CtxErr(ctx); err != nil {
		return fail(err)
	}
	switch req.Kind {
	case KindAllPairs:
		pairs, cands, err := e.allPairs(ctx, store, req)
		if err != nil {
			return fail(err)
		}
		res.Pairs = pairs
		res.Explain.Candidates = cands
		res.Explain.Survivors = cands
		if req.Where != nil {
			res.Explain.TextualCandidates = cands
			res.Explain.SpatialCandidates = store.Len()
		}
	case KindReverse:
		oids, cands, err := e.reverse(ctx, store, req)
		if err != nil {
			return fail(err)
		}
		res.OIDs = oids
		res.Explain.Candidates = cands
		res.Explain.Survivors = cands
		if req.Where != nil {
			res.Explain.TextualCandidates = cands
			res.Explain.SpatialCandidates = store.Len() - 1
		}
	default:
		// A predicate makes the single-target kinds decidable without any
		// envelope work when the target itself fails the filter: a
		// non-matching object is outside the answer universe, so every
		// "can OID be the (rank-k) NN" variant is false. An absent target
		// is still the usual error — "no" and "no such object" must not
		// blur. The query OID is exempt, matching the sub-store ground
		// truth (the query is always present there).
		if _, target := req.Target(); req.Where != nil && target && req.OID != req.QueryOID {
			if _, err := store.Get(req.OID); err != nil {
				return fail(fmt.Errorf("%w: %d", ErrUnknownOID, req.OID))
			}
			if !req.Where.Matches(store.Tags(req.OID)) {
				res.IsBool = true
				res.Explain.SpatialCandidates = store.Len() - 1
				res.Explain.Wall = time.Since(start)
				return res, nil
			}
		}
		proc, hit, err := e.processor(ctx, store, req.QueryOID, req.Tb, req.Te, req.Where, false)
		if err != nil {
			return fail(err)
		}
		res.Explain.MemoHit = hit
		res.Explain.Candidates = proc.CandidateCount()
		res.Explain.Survivors = res.Explain.Candidates - proc.PrunedCount()
		if req.Where != nil {
			res.Explain.TextualCandidates = res.Explain.Candidates
			res.Explain.SpatialCandidates = store.Len() - 1
		}
		if k := req.Rank(); k > 1 {
			if err := proc.EnsureLevelsCtx(ctx, k); err != nil {
				return fail(err)
			}
		}
		item := e.execRequest(ctx, proc, req)
		if item.Err != nil {
			return fail(item.Err)
		}
		res.IsBool, res.Bool, res.OIDs = item.IsBool, item.Bool, item.OIDs
	}
	res.Explain.Wall = time.Since(start)
	return res, nil
}

// DoBatch evaluates the requests in order, sharing preprocessing through
// the engine memo (requests against the same (query, window) reuse one
// build, and the deepest rank any of them needs is constructed once).
// Per-request failures are reported inside the matching Result; the batch
// itself only errors on a nil engine or when ctx is canceled, in which
// case the context error (context.Canceled / context.DeadlineExceeded) is
// returned with the results completed so far.
func (e *Engine) DoBatch(ctx context.Context, store *mod.Store, reqs []Request) ([]Result, error) {
	if e == nil {
		return nil, ErrNoEngine
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// One k-level construction per (query, window) for the deepest rank in
	// the batch; build failures resurface as per-request errors below.
	type group struct {
		qOID   int64
		tb, te float64
		where  string // canonical predicate key ("" = unfiltered)
	}
	maxK := make(map[group]int)
	preds := make(map[group]*textidx.Predicate)
	for _, r := range reqs {
		if r.Validate() != nil || !r.Kind.NeedsProcessor() {
			continue
		}
		w := r.Where.Canon()
		g := group{r.QueryOID, r.Tb, r.Te, w.Key()}
		preds[g] = w
		if k := r.Rank(); k > maxK[g] {
			maxK[g] = k
		}
	}
	for g, k := range maxK {
		if k <= 1 {
			continue
		}
		if err := queries.CtxErr(ctx); err != nil {
			return nil, err
		}
		if proc, _, err := e.processor(ctx, store, g.qOID, g.tb, g.te, preds[g], false); err == nil {
			_ = proc.EnsureLevelsCtx(ctx, k)
		}
	}
	out := make([]Result, len(reqs))
	for i, r := range reqs {
		if err := queries.CtxErr(ctx); err != nil {
			return out[:i], err
		}
		res, err := e.Do(ctx, store, r)
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return out[:i], err
		}
		out[i] = res
	}
	return out, nil
}

// execRequest dispatches one validated request against a ready processor.
// Whole-MOD kinds fan per-OID tasks across the worker pool with ctx
// checked between tasks; single-object kinds are O(N) and run inline.
func (e *Engine) execRequest(ctx context.Context, p *queries.Processor, req Request) item {
	return e.execRequestRestricted(ctx, p, req, nil)
}

// execRequestRestricted is execRequest with an optional restriction of the
// whole-MOD filter domain: when own is non-nil, the filter kinds iterate
// only the candidates that also appear in own (a sorted OID list), which is
// how a cluster router verifies the survivors it gathered. own == nil means
// the full domain; the single-object kinds ignore it entirely.
func (e *Engine) execRequestRestricted(ctx context.Context, p *queries.Processor, req Request, own []int64) item {
	boolItem := func(b bool, err error) item { return item{IsBool: true, Bool: b, Err: err} }
	listItem := func(ids []int64, err error) item { return item{OIDs: ids, Err: err} }
	domain := func(base []int64) []int64 {
		if own == nil {
			return base
		}
		return queries.IntersectSorted(base, own)
	}
	// A filter kind tests the rank's scan set only: the pre-pass settled
	// every other candidate's answer, and that answer is "no" — except
	// where the request holds even for an object that never enters the
	// zone, and then it is the candidate list itself. Under a probability
	// bound the domain narrows to the UQ31 members: an object outside the
	// zone throughout has P^NN identically zero and is nobody's certain NN.
	filter := func(pred func(oid int64) (bool, error)) item {
		if req.EnumeratesCandidates() {
			return listItem(domain(p.CandidateOIDs()), nil)
		}
		if req.P > 0 {
			return listItem(e.filterOIDs(ctx, domain(p.UQ31()), pred))
		}
		ids, err := p.ScanOIDs(req.Rank())
		if err != nil {
			return item{Err: err}
		}
		return listItem(e.filterOIDs(ctx, domain(ids), pred))
	}
	if req.P > 0 {
		holds := func(oid int64) (bool, error) {
			ivs, err := probIntervals(ctx, p, oid, req.P)
			return err == nil && req.holds(ivs), err
		}
		if req.Kind.IsWholeMODFilter() {
			return filter(holds)
		}
		return boolItem(holds(req.OID))
	}
	switch req.Kind {
	case KindUQ11:
		return boolItem(p.UQ11(req.OID))
	case KindUQ12:
		return boolItem(p.UQ12(req.OID))
	case KindUQ13:
		return boolItem(p.UQ13(req.OID, req.X))
	case KindUQ21:
		return boolItem(p.UQ21(req.OID, req.K))
	case KindUQ22:
		return boolItem(p.UQ22(req.OID, req.K))
	case KindUQ23:
		return boolItem(p.UQ23(req.OID, req.K, req.X))
	case KindNNAt:
		return boolItem(p.IsPossibleNNAt(req.OID, req.T))
	case KindRankAt:
		return boolItem(p.IsPossibleRankKAt(req.OID, req.T, req.K))
	case KindUQ31:
		return filter(p.UQ11)
	case KindUQ32:
		return filter(p.UQ12)
	case KindUQ33:
		return filter(func(oid int64) (bool, error) { return p.UQ13(oid, req.X) })
	case KindUQ41:
		return filter(func(oid int64) (bool, error) { return p.UQ21(oid, req.K) })
	case KindUQ42:
		return filter(func(oid int64) (bool, error) { return p.UQ22(oid, req.K) })
	case KindUQ43:
		return filter(func(oid int64) (bool, error) { return p.UQ23(oid, req.K, req.X) })
	case KindAllNNAt:
		return filter(func(oid int64) (bool, error) { return p.IsPossibleNNAt(oid, req.T) })
	case KindAllRankAt:
		return filter(func(oid int64) (bool, error) { return p.IsPossibleRankKAt(oid, req.T, req.K) })
	default:
		return item{Err: fmt.Errorf("%w: %q", ErrBadKind, req.Kind)}
	}
}

// probIntervals returns the times a probability bound 0 < P <= 1 holds for
// the object: where its sampled P^NN is at least P, or for P = 1 where it
// is certainly the nearest neighbor.
func probIntervals(ctx context.Context, p *queries.Processor, oid int64, P float64) ([]envelope.TimeInterval, error) {
	if P == 1 {
		return p.GuaranteedNNIntervals(oid)
	}
	return p.AboveThresholdIntervals(ctx, oid, P, queries.ThresholdConfig{})
}

// holds applies the kind's temporal quantifier to the times a probability
// bound holds: ∃ is a positive total, ∀ one interval covering the window,
// ≥X a total of at least X of the window, and @T an interval holding T,
// each within 1e-9.
func (r Request) holds(ivs []envelope.TimeInterval) bool {
	switch r.Kind {
	case KindUQ11, KindUQ31:
		return envelope.TotalLength(ivs) > 0
	case KindUQ12, KindUQ32:
		return len(ivs) == 1 && ivs[0].T0 <= r.Tb+1e-9 && ivs[0].T1 >= r.Te-1e-9
	case KindUQ13, KindUQ33:
		return envelope.TotalLength(ivs) >= r.X*(r.Te-r.Tb)-1e-9
	case KindNNAt, KindAllNNAt:
		for _, iv := range ivs {
			if r.T >= iv.T0-1e-9 && r.T <= iv.T1+1e-9 {
				return true
			}
		}
	}
	return false
}

// matchingTrajectories returns the store's trajectories restricted to
// the predicate's sub-MOD (all of them when where is nil), in store
// iteration order. Under a predicate the whole-MOD iteration kinds
// (KindAllPairs, KindReverse) both answer and iterate over this set: a
// non-matching object neither asks nor answers.
func matchingTrajectories(store *mod.Store, where *textidx.Predicate) []*trajectory.Trajectory {
	if where == nil {
		return store.All()
	}
	all, tags, _ := store.AllWithTags()
	out := make([]*trajectory.Trajectory, 0, len(all))
	for _, tr := range all {
		if where.Matches(tags[tr.OID]) {
			out = append(out, tr)
		}
	}
	return out
}

// containsOID reports whether trs holds a trajectory with the given OID.
func containsOID(trs []*trajectory.Trajectory, oid int64) bool {
	for _, tr := range trs {
		if tr.OID == oid {
			return true
		}
	}
	return false
}

// allPairs computes every object's possible-NN set, fanning the per-query
// envelope preprocessings (the dominant cost) across the worker pool.
// Under a predicate both the query set and each answer universe are the
// matching sub-MOD.
func (e *Engine) allPairs(ctx context.Context, store *mod.Store, req Request) (map[int64][]int64, int, error) {
	trs := matchingTrajectories(store, req.Where)
	sets := make([][]int64, len(trs))
	err := e.forEachIndex(ctx, len(trs), func(i int) error {
		p, err := prune.ForQueryWhereCtx(ctx, store, trs[i], req.Tb, req.Te, req.Where)
		if err != nil {
			return fmt.Errorf("query %d: %w", trs[i].OID, err)
		}
		sets[i] = p.UQ31()
		return nil
	})
	if err != nil {
		return nil, len(trs), err
	}
	out := make(map[int64][]int64, len(trs))
	for i, tr := range trs {
		out[tr.OID] = sets[i]
	}
	return out, len(trs), nil
}

// reverse retrieves the objects for which req.OID can be the nearest
// neighbor, one pruned preprocessing per candidate query trajectory.
// Under a predicate only matching objects ask (iterate as queries), and a
// non-matching target short-circuits to the empty answer — it is outside
// every matching query's universe — while an absent target stays an
// error.
func (e *Engine) reverse(ctx context.Context, store *mod.Store, req Request) ([]int64, int, error) {
	if _, err := store.Get(req.OID); err != nil {
		return nil, 0, fmt.Errorf("%w: %d", ErrUnknownOID, req.OID)
	}
	trs := matchingTrajectories(store, req.Where)
	cands := len(trs)
	for _, tr := range trs {
		if tr.OID == req.OID {
			cands--
			break
		}
	}
	if req.Where != nil && !req.Where.Matches(store.Tags(req.OID)) {
		return nil, cands, nil
	}
	keep := make([]bool, len(trs))
	err := e.forEachIndex(ctx, len(trs), func(i int) error {
		q := trs[i]
		if q.OID == req.OID {
			return nil
		}
		p, err := prune.ForQueryWhereCtx(ctx, store, q, req.Tb, req.Te, req.Where)
		if err != nil {
			return fmt.Errorf("query %d: %w", q.OID, err)
		}
		ok, err := p.UQ11(req.OID)
		if err != nil {
			return err
		}
		keep[i] = ok
		return nil
	})
	if err != nil {
		return nil, cands, err
	}
	var out []int64
	for i, tr := range trs {
		if keep[i] {
			out = append(out, tr.OID)
		}
	}
	return out, cands, nil
}

// forEachIndex runs fn(0..n-1) on the worker pool, checking ctx between
// tasks. The first error wins (a context error takes precedence); tasks
// not yet started are skipped once an error is recorded. Workers claim
// indexes from a shared counter, and the caller is one of them — there is
// no hand-over per task, so a worker that is not scheduled costs nothing.
func (e *Engine) forEachIndex(ctx context.Context, n int, fn func(i int) error) error {
	workers := min(e.workers, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			mu.Lock()
			stop := ferr != nil
			mu.Unlock()
			if stop {
				return
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
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if workers > 1 {
		// Cancellation is batch-fatal and callers match on the context
		// error, so it takes precedence over whatever task error the race
		// recorded. (A lone worker met it, if at all, before a task.)
		if err := queries.CtxErr(ctx); err != nil {
			return err
		}
	}
	return ferr
}
