// The unified context-aware query API: one declarative Request descriptor
// covering every continuous probabilistic NN variant of the paper's
// Section 4 (plus the Section 7 extensions), one Result envelope carrying
// the answer together with its Explain provenance, and a typed error
// taxonomy shared across layers. Engine.Do / Engine.DoBatch are the single
// execution route — every UQL statement compiles to a Request, and the
// modserver "query" op and the HTTP gateway carry Requests verbatim; a
// cluster router reaches the same evaluation code through Evaluate and
// PerQueryObject on the processors its gathers build — and every route
// honors context cancellation end-to-end: between per-OID worker tasks,
// between batch members, inside the index candidate pre-pass, and inside
// lazy envelope builds.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/envelope"
	"repro/internal/mod"
	"repro/internal/pool"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
	"repro/internal/updf"
)

// Typed error taxonomy of the unified API. ErrUnknownOID, ErrBadRank and
// ErrBadFrac alias the queries package's sentinels so errors.Is matches one
// identity per failure across every layer; ErrBadKind and ErrNoEngine are
// declared in engine.go.
var (
	// ErrBadWindow reports a query window with te <= tb (or a NaN bound).
	// Request.Normalize is the single place the check happens, so every
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
	// rejected by the UQL parser, the gateway decoder, or Normalize here.
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
// sampled P^NN, over the store's location pdf, is at least P (the paper's
// Section 7 threshold query), and
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

// Key identifies one envelope preprocessing: the query trajectory, the
// window, and the normalized predicate's key ("" = unfiltered), since a
// filtered build runs over a different sub-MOD. Every variant on one Key
// is answered from one processor (the paper's Claims 1–2): the engine's
// memo, a cluster router's gathered rounds and a standing-query hub's
// evaluation tasks are all keyed on it.
type Key struct {
	QueryOID int64
	Tb, Te   float64
	Where    string
}

// Key returns the request's preprocessing key; on a normalized request it
// reads the predicate's stored key and allocates nothing.
func (r Request) Key() Key { return Key{r.QueryOID, r.Tb, r.Te, r.Where.Key()} }

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

// Normalize checks the request's static well-formedness — a known kind,
// an increasing window, a rank >= 1 on ranked kinds, fractions and
// probabilities in [0, 1], P > 0 only on the kinds that take a
// probability bound — and returns it with Where normalized, or unchanged
// with the error. Every entry normalizes once; below it, a request is
// read as it is.
func (r Request) Normalize() (Request, error) {
	in, ok := r.Kind.info()
	if !ok {
		return r, fmt.Errorf("%w: %q", ErrBadKind, r.Kind)
	}
	if math.IsNaN(r.Tb) || math.IsNaN(r.Te) || !(r.Te > r.Tb) {
		return r, fmt.Errorf("%w: [%g, %g]", ErrBadWindow, r.Tb, r.Te)
	}
	if r.Rank() < 1 {
		return r, fmt.Errorf("%w: got %d", ErrBadRank, r.K)
	}
	switch r.Kind {
	case KindUQ13, KindUQ23, KindUQ33, KindUQ43:
		if r.X < 0 || r.X > 1 || math.IsNaN(r.X) {
			return r, fmt.Errorf("%w: x=%g", ErrBadFrac, r.X)
		}
	}
	if r.P < 0 || r.P > 1 || math.IsNaN(r.P) {
		return r, fmt.Errorf("%w: p=%g", ErrBadFrac, r.P)
	}
	if r.P > 0 && !in.prob {
		return r, fmt.Errorf("%w: %s takes no probability bound, got p=%g", ErrBadKind, r.Kind, r.P)
	}
	var err error
	r.Where, err = r.Where.Normalize()
	return r, err
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
	// engine's memo instead of rebuilt — on a cluster router's answer,
	// that an earlier request of the batch built the gather's processor.
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

	// Refined is the size of the restricted candidate domain a whole-MOD
	// filter was evaluated over (Evaluate's own): on a cluster router's
	// answer, the survivors its bound exchange gathered; zero on
	// unrestricted paths.
	Refined int `json:"refined,omitempty"`
	// RefineWall is the time that restricted evaluation took on its ready
	// processor (the build before it is not counted); zero otherwise.
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
// envelope preprocessing and Evaluate on it — or, for the kinds whose
// every object is a query, PerQueryObject over the store's objects.
// ctx cancellation is honored between per-OID worker tasks and inside the
// preprocessing; a nil ctx means context.Background(). On error the
// returned Result carries the same error in Err, with whatever Explain
// fields were established.
func (e *Engine) Do(ctx context.Context, store *mod.Store, req Request) (Result, error) {
	if e == nil {
		return Result{Kind: req.Kind, Err: ErrNoEngine}, ErrNoEngine
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res, err := e.do(ctx, store, req)
	res.Explain.Workers = e.Workers()
	res.Explain.Wall = time.Since(start)
	return res, err
}

// do is Do's body: the memo lookup in front of Evaluate.
func (e *Engine) do(ctx context.Context, store *mod.Store, req Request) (Result, error) {
	fail := func(err error) (Result, error) { return Result{Kind: req.Kind, Err: err}, err }
	req, err := req.Normalize()
	if err != nil {
		return fail(err)
	}
	if err := pool.CtxErr(ctx); err != nil {
		return fail(err)
	}
	if !req.Kind.NeedsProcessor() {
		res, err := e.PerQueryObject(ctx, req, store.MatchingOIDs(req.Where), func(oid int64) ([]string, error) {
			_, err := store.Get(oid)
			return store.Tags(oid), err
		}, func(ctx context.Context, qOID int64) (*queries.Processor, error) {
			q, err := store.Get(qOID)
			if err != nil {
				return nil, err
			}
			return prune.ForQueryWhereCtx(ctx, e.pool, store, q, req.Tb, req.Te, req.Where)
		})
		if req.Where != nil {
			// Every object asks on all-pairs; the reverse target does not.
			res.Explain.TextualCandidates = res.Explain.Candidates
			res.Explain.SpatialCandidates = store.Len()
			if req.Kind == KindReverse {
				res.Explain.SpatialCandidates--
			}
		}
		return res, err
	}
	// A predicate makes the single-target kinds decidable without any
	// envelope work when the target itself fails the filter: a
	// non-matching object is outside the answer universe, so every "can
	// OID be the (rank-k) NN" variant is false. An absent target is still
	// the usual error — "no" and "no such object" must not blur. The
	// query OID is exempt, matching the sub-store ground truth (the query
	// is always present there).
	if _, target := req.Target(); req.Where != nil && target && req.OID != req.QueryOID {
		if _, err := store.Get(req.OID); err != nil {
			return fail(fmt.Errorf("%w: %d", ErrUnknownOID, req.OID))
		}
		if !req.Where.Matches(store.Tags(req.OID)) {
			res := Result{Kind: req.Kind, IsBool: true}
			res.Explain.SpatialCandidates = store.Len() - 1
			return res, nil
		}
	}
	proc, hit, err := e.processor(ctx, store, req.QueryOID, req.Tb, req.Te, req.Where)
	if err != nil {
		return fail(err)
	}
	res, err := e.Evaluate(ctx, store, proc, req, nil)
	res.Explain.MemoHit = hit
	return res, err
}

// Evaluate answers one request on p, a ready processor for the request's
// (query, window, predicate) over store: Do's memoized pruned build, or a
// whole build over a gathered survivor union. It validates the request,
// grows the envelope levels its rank needs and runs the kind, fanning the
// whole-MOD kinds across the worker pool with ctx checked between tasks;
// it makes no context check of its own and never touches the memo. own,
// when non-nil, restricts the filter kinds' domain to a sorted OID list —
// a router's gathered survivors — and is reported as Refined; the
// single-object kinds ignore it.
func (e *Engine) Evaluate(ctx context.Context, store *mod.Store, p *queries.Processor, req Request, own []int64) (Result, error) {
	start := time.Now()
	res := Result{Kind: req.Kind}
	res.Explain.Workers = e.Workers()
	res.Explain.Candidates = p.CandidateCount()
	res.Explain.Survivors = res.Explain.Candidates - p.PrunedCount()
	if req.Where != nil {
		res.Explain.TextualCandidates = res.Explain.Candidates
		res.Explain.SpatialCandidates = store.Len() - 1
	}
	req, err := req.Normalize()
	if k := req.Rank(); err == nil && k > 1 {
		err = p.EnsureLevelsCtx(ctx, k)
	}
	if err == nil {
		it := e.execRequest(ctx, p, store.PDF(), req, own)
		res.IsBool, res.Bool, res.OIDs, err = it.IsBool, it.Bool, it.OIDs, it.Err
	}
	res.Err = err
	res.Explain.Wall = time.Since(start)
	if own != nil && req.Kind.IsWholeMODFilter() {
		res.Explain.Refined, res.Explain.RefineWall = len(own), res.Explain.Wall
	}
	return res, err
}

// DoBatch evaluates the requests in order under RunBatch's contract,
// sharing preprocessing through the engine memo: requests on one Key reuse
// one build, and a member of a Key widened above rank 1 first grows that
// build to the Key's deepest rank, so the first such member constructs the
// levels once and the rest find them ready. The batch itself errors only
// on a nil engine or a context error.
func (e *Engine) DoBatch(ctx context.Context, store *mod.Store, reqs []Request) ([]Result, error) {
	if e == nil {
		return nil, ErrNoEngine
	}
	return RunBatch(ctx, reqs, func(ctx context.Context, req Request, rank int) (Result, error) {
		// A build failure here resurfaces as the member's own error.
		if rank > 1 {
			if proc, _, err := e.processor(ctx, store, req.QueryOID, req.Tb, req.Te, req.Where); err == nil {
				_ = proc.EnsureLevelsCtx(ctx, rank)
			}
		}
		return e.Do(ctx, store, req)
	})
}

// RunBatch evaluates reqs in order with do — the batch contract of
// Engine.DoBatch and of a cluster router's DoBatch:
//
//   - Each Key is widened to the deepest rank that any valid member of a
//     kind needing a processor asks for, and do gets each such member,
//     normalized, with its Key's rank, and any other valid member rank 0.
//   - A failing member, one that Normalize rejects included, fails only
//     its own Result.
//   - The context is checked before every member; a context error there
//     or from a member ends the batch, returning the completed prefix
//     together with that error.
//
// A nil ctx means context.Background().
func RunBatch(ctx context.Context, reqs []Request, do func(ctx context.Context, req Request, rank int) (Result, error)) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	norm := make([]Request, len(reqs))
	out := make([]Result, len(reqs))
	deepest := make(map[Key]int)
	for i, r := range reqs {
		var err error
		if norm[i], err = r.Normalize(); err != nil {
			out[i] = Result{Kind: r.Kind, Err: err}
		} else if r.Kind.NeedsProcessor() {
			deepest[norm[i].Key()] = max(deepest[norm[i].Key()], r.Rank())
		}
	}
	for i, r := range norm {
		if err := pool.CtxErr(ctx); err != nil {
			return out[:i], err
		}
		if out[i].Err != nil {
			continue
		}
		rank := 0
		if r.Kind.NeedsProcessor() {
			rank = deepest[r.Key()]
		}
		res, err := do(ctx, r, rank)
		if pool.IsCtxErr(err) {
			return out[:i], err
		}
		out[i] = res
	}
	return out, nil
}

// execRequest dispatches one normalized request against a ready processor
// of a store whose location pdf is pdf. Whole-MOD kinds fan per-OID tasks
// across the worker pool with ctx checked between tasks; single-object
// kinds are O(N) and run inline. own optionally restricts the whole-MOD
// filter domain: when it is non-nil, the filter kinds iterate only the
// candidates that also appear in own (a sorted OID list), which is how a
// cluster router verifies the survivors it gathered. own == nil means the
// full domain; the single-object kinds ignore it entirely.
func (e *Engine) execRequest(ctx context.Context, p *queries.Processor, pdf updf.RadialPDF, req Request, own []int64) item {
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
		// The bound holds where the object's sampled P^NN (the store's pdf)
		// is at least P, read off one table the first UQ31 member builds (a
		// non-member's P^NN is 0), or for P = 1 where it is certainly NN.
		table := sync.OnceValues(func() (*queries.ProbabilityTable, error) {
			return p.ProbabilityTable(ctx, queries.ThresholdConfig{PDF: pdf})
		})
		holds := func(oid int64) (bool, error) {
			var ivs []envelope.TimeInterval
			member, err := p.UQ11(oid)
			if err == nil && req.P == 1 {
				ivs, err = p.GuaranteedNNIntervals(oid)
			} else if err == nil && member {
				var t *queries.ProbabilityTable
				if t, err = table(); err == nil {
					ivs, err = t.Above(oid, req.P)
				}
			}
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

// holds applies the kind's temporal quantifier to the times a probability
// bound holds: ∃ is a positive total, ∀ one interval covering the window,
// ≥X a total of at least X of the window, and @T an interval holding T,
// each within envelope.TimeEps.
func (r Request) holds(ivs []envelope.TimeInterval) bool {
	const eps = envelope.TimeEps
	switch r.Kind {
	case KindUQ11, KindUQ31:
		return envelope.TotalLength(ivs) > 0
	case KindUQ12, KindUQ32:
		return len(ivs) == 1 && ivs[0].T0 <= r.Tb+eps && ivs[0].T1 >= r.Te-eps
	case KindUQ13, KindUQ33:
		return envelope.TotalLength(ivs) >= r.X*(r.Te-r.Tb)-eps
	case KindNNAt, KindAllNNAt:
		for _, iv := range ivs {
			if r.T >= iv.T0-eps && r.T <= iv.T1+eps {
				return true
			}
		}
	}
	return false
}

// matchingTrajectories returns the store's trajectories restricted to
// the predicate's sub-MOD (all of them when where is nil), in OID order:
// the snapshot a full-scan build reads.
func matchingTrajectories(store *mod.Store, where *textidx.Predicate) []*trajectory.Trajectory {
	if where == nil {
		return store.All()
	}
	v := store.TaggedView()
	n := 0
	for _, ts := range v.Tags {
		if where.Matches(ts) {
			n++
		}
	}
	out := make([]*trajectory.Trajectory, 0, n)
	for i, tr := range v.Trajs {
		if where.Matches(v.Tags[i]) {
			out = append(out, tr)
		}
	}
	return out
}

// PerQueryObject answers KindAllPairs and KindReverse, the kinds whose
// every object is a query: for each of oids (sorted; the reverse target
// skipped) build returns that object's processor over the window, and
// the object contributes its UQ31 set (all-pairs) or whether the target
// can be its NN (reverse), fanned across the worker pool. tags resolves
// the reverse target: an error matching mod.ErrNotFound is ErrUnknownOID,
// and a target outside req.Where's sub-MOD answers empty. Do passes the
// store's matching objects and their pruned builds; a cluster router
// passes the shards' merged OID lists and a whole build of each object's
// gathered union.
func (e *Engine) PerQueryObject(ctx context.Context, req Request, oids []int64, tags func(oid int64) ([]string, error), build func(ctx context.Context, qOID int64) (*queries.Processor, error)) (Result, error) {
	res := Result{Kind: req.Kind}
	res.Explain.Workers = e.Workers()
	res.Explain.Candidates = len(oids)
	reverse := req.Kind == KindReverse
	if _, asks := slices.BinarySearch(oids, req.OID); reverse && asks {
		res.Explain.Candidates--
	}
	res.Explain.Survivors = res.Explain.Candidates
	if reverse {
		ts, err := tags(req.OID)
		if errors.Is(err, mod.ErrNotFound) {
			err = fmt.Errorf("%w: %d", ErrUnknownOID, req.OID)
		}
		if err != nil {
			res.Err = err
			return res, err
		}
		if req.Where != nil && !req.Where.Matches(ts) {
			return res, nil
		}
	}
	sets := make([][]int64, len(oids))
	keep := make([]bool, len(oids))
	err := e.ForEachIndex(ctx, len(oids), func(i int) error {
		if reverse && oids[i] == req.OID {
			return nil
		}
		p, err := build(ctx, oids[i])
		if err == nil && reverse {
			keep[i], err = p.UQ11(req.OID)
		} else if err == nil {
			sets[i] = p.UQ31()
		}
		if err != nil {
			return fmt.Errorf("query %d: %w", oids[i], err)
		}
		return nil
	})
	if err != nil {
		res.Err = err
		return res, err
	}
	if !reverse {
		res.Pairs = make(map[int64][]int64, len(oids))
	}
	for i, oid := range oids {
		switch {
		case !reverse:
			res.Pairs[oid] = sets[i]
		case keep[i]:
			res.OIDs = append(res.OIDs, oid)
		}
	}
	return res, nil
}

// ForEachIndex runs fn(0..n-1) on the engine's worker pool (see
// pool.Pool.ForEachIndex): ctx is checked before every task, and claiming
// a task and checking ctx for it happen under one lock, so a context that
// dies at its n-th check is checked exactly n times at any worker count.
// The error returned is the lowest failed index's, the serial loop's.
// Workers are started per call and the caller is one of them, so a loop
// run from inside another loop's task is safe.
func (e *Engine) ForEachIndex(ctx context.Context, n int, fn func(i int) error) error {
	return e.pool.ForEachIndex(ctx, n, fn)
}
