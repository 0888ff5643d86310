// Package continuous turns the unified query API into a standing-query
// subsystem: clients register repro.Request subscriptions against a live
// MOD, location updates flow in through Ingest, and each ingest batch
// re-evaluates only the subscriptions the batch can actually affect,
// emitting diff events (OIDs added/removed, predicate flips) with the
// usual Explain provenance.
//
// The heart of the package is the dirty test and, behind it, the
// maintained answer. A subscription remembers, from its last evaluation, a
// *zone profile*: the query trajectory, the deterministic slice cuts of its
// window (prune.SliceCuts), the per-slice upper bounds on the Level-k lower
// envelope, and the prune candidate superset. An update is *irrelevant* to
// the subscription — and must not trigger re-evaluation — when all of the
// following hold:
//
//   - it does not touch the query trajectory or the request's target
//     object;
//   - it does not touch a superset member (everything whose distance
//     function can graze the envelope's pruning zone is in the superset);
//   - the object's changed motion (appends only change positions from the
//     old plan end onward; before it the plan is untouched) stays outside
//     the influence zone on every overlapping slice: its exact minimum
//     crisp distance from the query exceeds bound + 6r + Margin, for both
//     the new plan and the superseded clamp it replaced;
//   - the answer is not the candidate set itself (a UQ33/UQ43 whose
//     fraction requirement rounds to zero lists every object of the
//     (sub-)MOD, so any arrival, departure or predicate crossing changes
//     it, wherever it happens).
//
// The 6r width is deliberately wider than the paper's 4r possible-NN
// zone: certain-NN and threshold answers also depend on objects that can
// merely *block* a zone member's certainty, and a blocker j of member i
// satisfies min d_j <= max d_i + r <= (env + 4r) + 2r. An object beyond
// env + 6r can neither define the envelope, nor enter any zone, nor block
// anyone — so leaving it unevaluated provably preserves every answer
// byte.
//
// A batch that fails the test used to cost a whole evaluation — snapshot,
// index probes, corridor sweep, distance functions, envelope, interval
// scans — although what the paper builds is a *continuous* answer: one
// lower envelope and one 4r zone serve the whole window, and a revised plan
// changes exactly one difference-distance function. So the engine backend
// keeps, inside the profile, the *seed* of the evaluation (prune.Seed: the
// survivor set S with the trajectory pointers it was computed from, the
// bounds B it was swept against, envelope levels 1..k, the zone rows at the
// request's rank — a few kB, nothing of the size of the fleet), and a dirty
// batch is handed to the backend together with that profile. There is one
// rule for what happens then, in one function, prune.Revise. With C the
// batch's objects whose motion inside the window changed, or that were
// inserted, retired or moved across the predicate, and S' = (S minus C)
// plus the members of C still in the (sub-)MOD that pass the sweep's own
// per-slice test min dist <= B_i + 4r + Margin on their live plan:
//
//	if the query object is in C, or a member of C defines a maintained
//	level, or a function of S' that C contributed reaches Level k
//	anywhere, or the last evaluation had no pre-pass or an unbounded slice
//	— evaluate from scratch, exactly as before, which also refreshes the
//	bounds. Otherwise continue the seed.
//
// Why continuing is sound, in order. (1) Levels 1..k over S' are the same
// functions as over S: what left defined nothing, what joined lies strictly
// above Level k (envelope.StrictlyAbove decides that exactly: on every
// elementary interval f² − e² is one quadratic). (2) So the levels still
// sit under the bounds B they sat under when S was swept. (3) Every object
// outside S' is further than B_i + 4r + Margin from the query on every
// slice: members of C by the test just made; untouched objects because the
// sweep found them so; objects changed by an earlier batch that was *not*
// handed over because the dirty test proved both their old and new motion
// outside the wider B_i + 6r + Margin before skipping it. S' is therefore a
// conservative superset of the rank-k zone — all a pruned processor asks of
// its survivors. (4) The zone rows of S minus C are a pure function of
// unchanged bits — same function, same level — so only the rows of what C
// contributed are computed. The successor is an ordinary queries.Processor
// over the current snapshot, installed in the engine's memo at the current
// version: engine.Do remains the single execution route, every kind works
// on it, and a one-shot query for the same (query, window) shares it. The
// profile that comes back carries S' and the old B, so *when* a question is
// dirty is decided exactly as it always was; Stats.Patched and
// Stats.Rebuilt say which way each evaluation went.
//
// A batch's dirty groups are evaluated side by side on the backend's own
// worker pool (engine.Engine.ForEachIndex; a cluster router lends its inner
// engine's), one task per engine memo key — the groups that share a query,
// a window and a predicate run in ID order inside one task, so each key
// sees the same install-then-hit sequence as a serial run. Events, stats
// and profiles are assembled afterwards in subscription-ID order, so the
// event stream, its Explain provenance (wall times and pool size aside) and
// the counters are identical to those of a hub over engine.New(1), which
// is the serial hub.
//
// The deterministic simulation harness (internal/simtest) pins the
// outcome: after every ingest step, every live answer must equal a fresh
// engine run on a snapshot. This package's differential tests pin the
// mechanism: a hub that continues seeds and one that never does must emit
// identical event streams.
package continuous

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/pool"
	"repro/internal/prune"
	"repro/internal/trajectory"
)

// Package errors.
var (
	// ErrNoSub reports an unknown subscription ID.
	ErrNoSub = errors.New("continuous: unknown subscription")
	// ErrHubClosed is returned after Close.
	ErrHubClosed = errors.New("continuous: hub closed")
	// ErrEventGap reports a Replay whose starting sequence has been
	// truncated out of the bounded backlog: the missed events are gone,
	// and the caller must fall back to the current full answer instead of
	// patching diffs onto a stale one.
	ErrEventGap = errors.New("continuous: replay gap: backlog truncated")
)

// DefaultBacklog bounds each subscription's retained event backlog (for
// Replay): deep enough to ride out a reconnect window at ingest-batch
// granularity, shallow enough that a thousand subscriptions hold at most a
// few MB of diffs.
const DefaultBacklog = 256

// Backend abstracts where the standing queries are evaluated: a
// single-store engine (NewEngineHub) or a sharded cluster router
// (cluster.NewRouterHub). Implementations must evaluate against the same
// data Apply mutates.
type Backend interface {
	// Apply applies the updates and reports per-update outcomes.
	Apply(ctx context.Context, updates []mod.Update) ([]mod.Applied, error)
	// Evaluate answers one request (the engine.Do contract) and returns
	// the request's zone profile at the same data version — derived from
	// work the evaluation already performed (the engine's memoized
	// processor, the router's bound exchange), never a second full pass.
	// A nil profile means the backend cannot bound the request's
	// dependency set (the kind iterates query trajectories, say); the
	// subscription then re-evaluates on every ingest.
	Evaluate(ctx context.Context, req engine.Request) (engine.Result, *Profile, error)
	// Radius returns the shared uncertainty radius.
	Radius() float64
}

// reviser is the optional half of a Backend: one that keeps something of an
// evaluation inside the Profile it returns can be handed that profile back,
// with the batch applied since, and continue from it where the batch
// allows. patched reports that it did; either way the result and profile
// are what Evaluate would have returned. A backend without the method is
// evaluated from scratch on every dirty batch.
type reviser interface {
	Revise(ctx context.Context, req engine.Request, last *Profile, applied []mod.Applied) (res engine.Result, prof *Profile, patched bool, err error)
}

// workerPool is the other optional half of a Backend: one whose
// evaluations may run side by side lends the hub its worker pool, with
// pool.Pool.ForEachIndex's contract (fn(0..n-1), the context checked
// before every task, no task started after a failure, the lowest failed
// index's error). Ingest runs a batch's dirty groups on it; a backend
// without the method evaluates them one after another, on a nil pool.
type workerPool interface {
	ForEachIndex(ctx context.Context, n int, fn func(i int) error) error
}

// Profile is a subscription's zone fingerprint from its last evaluation —
// everything the dirty test needs to prove an update irrelevant.
type Profile struct {
	// Query is the query trajectory the bounds were computed against.
	Query *trajectory.Trajectory
	// Cuts are the window's deterministic slice boundaries.
	Cuts []float64
	// Bounds are per-slice upper bounds on the Level-k lower envelope
	// (k = the request's rank), +Inf where unbounded.
	Bounds []float64
	// Superset holds the prune candidate superset's OIDs.
	Superset map[int64]struct{}

	// seed is what the evaluation behind this profile established that the
	// next one can start from (see prune.Seed); nil when the backend keeps
	// none. Like the rest of the profile it is immutable.
	seed *prune.Seed

	// qbox/maxBound are the O(1) prefilter, derived in finish(): the
	// query's spatial bounding box over the window and the largest finite
	// slice bound (+Inf disables the prefilter). An update whose changed
	// motion stays further from qbox than maxBound + influence width
	// cannot graze any slice's zone, with no per-slice work.
	qbox     geom.AABB
	maxBound float64
}

// finish derives the prefilter fields. Hub calls it on every profile a
// backend returns.
func (p *Profile) finish() *Profile {
	if p == nil {
		return nil
	}
	if p.Query != nil && len(p.Cuts) >= 2 {
		tb, te := p.Cuts[0], p.Cuts[len(p.Cuts)-1]
		box := geom.AABBOf(p.Query.At(tb), p.Query.At(te))
		for _, tv := range p.Query.VertexTimesWithin(tb, te) {
			box = box.ExtendPoint(p.Query.At(tv))
		}
		p.qbox = box
	}
	p.maxBound = 0
	for _, u := range p.Bounds {
		if u > p.maxBound {
			p.maxBound = u
		}
	}
	return p
}

// Event is one subscription's diff after an ingest batch. For retrieval
// kinds Added/Removed carry the OID delta and OIDs the full new answer;
// for predicate kinds Bool carries the new value; the all-pairs kind
// ships the full new Pairs map. Seq increases per subscription, so a
// stream consumer can detect gaps.
type Event struct {
	SubID   int64             `json:"sub_id"`
	Seq     uint64            `json:"seq"`
	Kind    engine.Kind       `json:"kind"`
	Added   []int64           `json:"added,omitempty"`
	Removed []int64           `json:"removed,omitempty"`
	IsBool  bool              `json:"is_bool,omitempty"`
	Bool    bool              `json:"bool,omitempty"`
	OIDs    []int64           `json:"oids,omitempty"`
	Pairs   map[int64][]int64 `json:"pairs,omitempty"`
	Explain engine.Explain    `json:"explain"`
}

// Stats counts the hub's dirty-set effectiveness: how many backend
// evaluations ingests triggered, how many subscription refreshes were
// served from a group-mate's evaluation instead of their own, and how
// many re-evaluations the dirty test skipped outright.
type Stats struct {
	Ingested uint64 `json:"ingested"` // updates applied
	Evals    uint64 `json:"evals"`    // backend evaluations run (Patched + Rebuilt)
	Skips    uint64 `json:"skips"`    // subscription refreshes proven unnecessary
	// Shared counts subscription refreshes (and initial Subscribe
	// answers) satisfied by another subscription's evaluation of the same
	// request — the dirty-set-sharing dividend.
	Shared uint64 `json:"shared,omitempty"`
	// Patched counts the evaluations that continued the group's maintained
	// answer — the batch left its envelope levels standing — and Rebuilt
	// the ones derived from scratch (always, on a backend that maintains
	// nothing).
	Patched uint64 `json:"patched,omitempty"`
	Rebuilt uint64 `json:"rebuilt,omitempty"`
}

type sub struct {
	id   int64
	req  engine.Request
	key  subKey // groupKey(req), computed once
	last engine.Result
	prof *Profile
	seq  uint64
	// backlog retains the most recent emitted events (contiguous Seqs,
	// oldest first, at most DefaultBacklog) for Replay.
	backlog []Event
}

// subGroup is the set of live subscriptions sharing one request identity.
// Two subscriptions with equal keys have byte-identical answers at every
// data version (the engine is deterministic), so one evaluation per
// ingest batch serves them all, and any member's zone profile can prove
// the whole group clean.
type subGroup struct {
	members map[int64]*sub
}

// anyProfiled returns a member holding a zone profile, or nil. Members'
// profiles are interchangeable for the dirty test: each was valid when
// derived, and every batch since was proven irrelevant against a member
// profile — which pins the shared answer, hence every member's answer.
func (g *subGroup) anyProfiled() *sub {
	for _, s := range g.members {
		if s.prof != nil {
			return s
		}
	}
	return nil
}

// subKey identifies a request for dirty-set sharing: two keys are equal
// iff the requests are bit-identical, floats compared by their bits (Tb,
// Te, X, T, P) and the predicate by its normalized key.
type subKey struct {
	kind          engine.Kind
	queryOID, oid int64
	k             int
	bits          [5]uint64
	where         string
}

// groupKey returns a normalized request's subKey.
func groupKey(req engine.Request) subKey {
	f := math.Float64bits
	return subKey{req.Kind, req.QueryOID, req.OID, req.K, [5]uint64{f(req.Tb), f(req.Te), f(req.X), f(req.T), f(req.P)}, req.Where.Key()}
}

// remember appends ev to the bounded backlog.
func (s *sub) remember(ev Event) {
	if len(s.backlog) >= DefaultBacklog {
		n := copy(s.backlog, s.backlog[len(s.backlog)-DefaultBacklog+1:])
		s.backlog = s.backlog[:n]
	}
	s.backlog = append(s.backlog, ev)
}

// Hub owns the standing subscriptions over one backend. All methods are
// safe for concurrent use; Ingest batches are serialized, so events are
// totally ordered per subscription. Inside a batch the dirty groups
// evaluate side by side on the backend's worker pool, and the events,
// stats and profiles are assembled in subscription-ID order. Every
// mutation of the underlying data must flow through Ingest — the dirty
// test's profiles describe the data as of the last evaluation.
type Hub struct {
	be Backend

	mu     sync.Mutex
	subs   map[int64]*sub
	groups map[subKey]*subGroup
	nextID int64
	stats  Stats
	closed bool
}

// New creates a hub over a backend.
func New(be Backend) *Hub {
	return &Hub{be: be, subs: make(map[int64]*sub), groups: make(map[subKey]*subGroup)}
}

// NewEngineHub is the single-store hub: updates apply to store, standing
// queries evaluate through eng (nil means a fresh engine with one worker
// per CPU).
func NewEngineHub(store *mod.Store, eng *engine.Engine) *Hub {
	if eng == nil {
		eng = engine.New(0)
	}
	return New(&engineBackend{store: store, eng: eng})
}

// Subscribe registers a standing request and returns its ID and initial
// answer. A request whose initial evaluation fails (unknown query OID,
// bad window, ...) is rejected outright — there is nothing coherent to
// keep fresh. When a live subscription already stands on the identical
// request with a valid zone profile and a clean answer, its answer and
// profile are reused instead of re-evaluating — the subscribe-time half
// of dirty-set sharing. The request is kept normalized.
func (h *Hub) Subscribe(ctx context.Context, req engine.Request) (int64, engine.Result, error) {
	req, err := req.Normalize()
	if err != nil {
		return 0, engine.Result{Kind: req.Kind, Err: err}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, engine.Result{Kind: req.Kind, Err: ErrHubClosed}, ErrHubClosed
	}
	key := groupKey(req)
	if g := h.groups[key]; g != nil {
		if m := g.anyProfiled(); m != nil && m.last.Err == nil {
			h.stats.Shared++
			return h.registerLocked(req, key, m.last, m.prof), m.last, nil
		}
	}
	res, prof, err := h.be.Evaluate(ctx, req)
	if err != nil {
		return 0, res, err
	}
	return h.registerLocked(req, key, res, prof.finish()), res, nil
}

// registerLocked installs a new subscription in the ID and group tables.
// Caller holds h.mu.
func (h *Hub) registerLocked(req engine.Request, key subKey, res engine.Result, prof *Profile) int64 {
	h.nextID++
	id := h.nextID
	s := &sub{id: id, req: req, key: key, last: res, prof: prof}
	h.subs[id] = s
	g := h.groups[key]
	if g == nil {
		g = &subGroup{members: make(map[int64]*sub)}
		h.groups[key] = g
	}
	g.members[id] = s
	return id
}

// Unsubscribe drops a subscription. It reports whether the ID was live.
func (h *Hub) Unsubscribe(id int64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.subs[id]
	delete(h.subs, id)
	if ok {
		if g := h.groups[s.key]; g != nil {
			delete(g.members, id)
			if len(g.members) == 0 {
				delete(h.groups, s.key)
			}
		}
	}
	return ok
}

// Answer returns a subscription's current (last evaluated) result.
func (h *Hub) Answer(id int64) (engine.Result, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.subs[id]
	if !ok {
		return engine.Result{}, fmt.Errorf("%w: %d", ErrNoSub, id)
	}
	return s.last, nil
}

// Stats reports the hub's counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// Replay returns the subscription's retained events with Seq > fromSeq,
// oldest first — the exact diffs a consumer at fromSeq missed. A
// consumer that is already current gets an empty slice. When the bounded
// backlog no longer reaches back to fromSeq+1 the diffs are
// unrecoverable and Replay reports ErrEventGap; the caller should take
// the current Answer as a fresh baseline instead.
func (h *Hub) Replay(id int64, fromSeq uint64) ([]Event, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.subs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSub, id)
	}
	if fromSeq >= s.seq {
		return nil, nil
	}
	if len(s.backlog) == 0 || s.backlog[0].Seq > fromSeq+1 {
		return nil, fmt.Errorf("%w: subscription %d at seq %d, replay from %d", ErrEventGap, id, s.seq, fromSeq)
	}
	i := 0
	for i < len(s.backlog) && s.backlog[i].Seq <= fromSeq {
		i++
	}
	return slices.Clone(s.backlog[i:]), nil
}

// Close marks the hub closed; subsequent Subscribe/Ingest calls fail.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
}

// groupOutcome is one request group's verdict for one ingest batch: the
// shared dirty decision and, when dirty, the single evaluation every
// member's refresh is served from. req and rep are the evaluation's inputs
// (the first-seen member's request and the member whose profile proved
// the group dirty, nil when none holds one); ran, patched and the result
// fields are written by the evaluation, served by the assembly.
type groupOutcome struct {
	dirty   bool
	req     engine.Request
	rep     *sub
	ran     bool
	patched bool
	res     engine.Result
	prof    *Profile
	err     error
	served  bool
}

// Ingest applies one update batch and re-evaluates the affected
// subscriptions, returning the per-update outcomes and the diff events
// (empty when no answer changed) in subscription-ID order. Subscriptions
// standing on the identical request share one dirty test and one
// evaluation per batch (their answers are byte-identical at every data
// version), so a thousand subscribers to the same query cost one engine
// pass. The batch runs in three passes under the hub's lock: the dirty
// tests, in ID order against the pre-batch profiles; the dirty groups'
// evaluations, side by side on the backend's worker pool when it has one;
// and the assembly — diffs, events, stats and profiles — in ID order, so
// the events are those of a one-group-at-a-time run. On an apply
// error the updates applied so far stand, every profile is invalidated
// (the data moved under the profiles), and the error is returned with no
// events. On a context error the events of the subscriptions before the
// first group left unevaluated are returned with the error; that
// subscription and every later one keep their stale answers but lose
// their profiles, so the next ingest re-evaluates them. A subscription
// whose query or target object was retired flips its standing answer to
// the ErrUnknownOID result — the same answer a fresh query for the OID
// would get.
func (h *Hub) Ingest(ctx context.Context, updates []mod.Update) ([]mod.Applied, []Event, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, nil, ErrHubClosed
	}
	applied, err := h.be.Apply(ctx, updates)
	h.stats.Ingested += uint64(len(applied))
	if err != nil {
		for _, s := range h.subs {
			s.prof = nil
		}
		return applied, nil, err
	}
	ids := make([]int64, 0, len(h.subs))
	for id := range h.subs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	r := h.be.Radius()
	// The changed-motion bounding boxes are per-update, not per-(update,
	// subscription): derive them once for the whole fan-out.
	boxes := make([]geom.AABB, len(applied))
	for i, a := range applied {
		boxes[i] = changedBox(a)
	}
	outcomes := make(map[subKey]*groupOutcome)
	var pending []*groupOutcome // the dirty groups, in first-seen order
	for _, id := range ids {
		s := h.subs[id]
		if _, seen := outcomes[s.key]; seen {
			continue
		}
		out := &groupOutcome{}
		outcomes[s.key] = out
		// Any member holding a zone profile can prove the whole group
		// clean: the profile pinned the shared answer through every batch
		// since it was derived. A group with no profiled member must
		// evaluate.
		if rep := h.groups[s.key].anyProfiled(); rep == nil || dirty(rep, applied, boxes, r) {
			out.dirty, out.req, out.rep = true, s.req, rep
			pending = append(pending, out)
		}
	}
	h.evaluate(ctx, pending, applied)
	for _, out := range pending {
		if out.ran {
			h.stats.Evals++
			if out.patched {
				h.stats.Patched++
			} else {
				h.stats.Rebuilt++
			}
		}
	}
	var events []Event
	for i, id := range ids {
		s := h.subs[id]
		out := outcomes[s.key]
		if !out.dirty {
			h.stats.Skips++
			continue
		}
		if out.served {
			h.stats.Shared++
		}
		out.served = true
		if out.err != nil {
			s.prof = nil
			if pool.IsCtxErr(out.err) {
				// The batch is already applied but this group was never
				// evaluated against it, and the assembly stops here: the
				// remaining subscriptions' profiles describe pre-batch
				// data, so drop them — the next ingest re-evaluates
				// instead of trusting a stale fingerprint into a
				// forever-stale answer.
				for _, rest := range ids[i+1:] {
					h.subs[rest].prof = nil
				}
				return applied, events, out.err
			}
			if errors.Is(out.err, engine.ErrUnknownOID) || errors.Is(out.err, mod.ErrNotFound) {
				// The query or target object was retired: the standing
				// answer becomes the error a fresh query would get, until
				// a re-insert of the OID revives the subscription. A
				// missing query trajectory surfaces as mod.ErrNotFound on
				// both topologies (the engine's memo lookup and the cluster
				// router's gather wrap it), a missing target as
				// engine.ErrUnknownOID; normalize so the standing answer
				// carries the ErrUnknownOID identity either way.
				werr := out.err
				if !errors.Is(werr, engine.ErrUnknownOID) {
					werr = fmt.Errorf("%w: %v", engine.ErrUnknownOID, out.err)
				}
				s.last = engine.Result{Kind: s.req.Kind, Err: werr}
				continue
			}
			// A transient per-subscription evaluation error: keep the last
			// good answer, stay profile-less so the next ingest retries.
			continue
		}
		ev, changed := diffResults(s.last, out.res)
		s.last = out.res
		s.prof = out.prof
		if changed {
			s.seq++
			ev.SubID = s.id
			ev.Seq = s.seq
			ev.Kind = out.res.Kind
			ev.Explain = out.res.Explain
			events = append(events, ev)
			s.remember(ev)
		}
	}
	return applied, events, nil
}

// evaluate is Ingest's second pass: it runs every dirty group's one
// evaluation for this batch. Groups on one memo key form one task and run
// in first-seen order, so each key sees the same Revise-install → Do
// sequence (and the same memo hits, seeds and verdicts) as a run of one
// group at a time; the tasks run side by side on the backend's worker
// pool. The workers touch only their own outcomes and the read-only
// profiles and batch; the hub's counters and tables wait for the
// assembly. A context error stops the pass, and every group it left
// unevaluated carries that error.
func (h *Hub) evaluate(ctx context.Context, pending []*groupOutcome, applied []mod.Applied) {
	var tasks [][]*groupOutcome
	byKey := make(map[engine.Key]int)
	for _, out := range pending {
		k := out.req.Key()
		i, ok := byKey[k]
		if !ok {
			i = len(tasks)
			byKey[k] = i
			tasks = append(tasks, nil)
		}
		tasks[i] = append(tasks[i], out)
	}
	each := (*pool.Pool)(nil).ForEachIndex
	if p, ok := h.be.(workerPool); ok {
		each = p.ForEachIndex
	}
	err := each(ctx, len(tasks), func(i int) error {
		for j, out := range tasks[i] {
			if j > 0 {
				if err := pool.CtxErr(ctx); err != nil {
					return err
				}
			}
			out.ran = true
			h.reevaluate(ctx, out, applied)
			if pool.IsCtxErr(out.err) {
				return out.err
			}
		}
		return nil
	})
	if err != nil {
		for _, out := range pending {
			if !out.ran {
				out.err = err
			}
		}
	}
}

// reevaluate runs a dirty group's one evaluation for this batch: from the
// representative's profile where the backend can continue one, from
// scratch otherwise. It writes only the outcome, so groups on distinct
// memo keys may run it side by side.
func (h *Hub) reevaluate(ctx context.Context, out *groupOutcome, applied []mod.Applied) {
	if rv, ok := h.be.(reviser); ok {
		var last *Profile
		if out.rep != nil {
			last = out.rep.prof
		}
		out.res, out.prof, out.patched, out.err = rv.Revise(ctx, out.req, last, applied)
	} else {
		out.res, out.prof, out.err = h.be.Evaluate(ctx, out.req)
	}
	out.prof = out.prof.finish()
}

// influenceWidth is the dirty-test zone width beyond the per-slice
// envelope bound: 6r + Margin (see the package comment's derivation).
func influenceWidth(r float64) float64 { return 6*r + prune.Margin }

// dirty reports whether any applied update can change the subscription's
// answer. boxes[i] is the precomputed bounding box of applied[i]'s
// changed motion (new plan and superseded plan, from ChangedFrom on).
func dirty(s *sub, applied []mod.Applied, boxes []geom.AABB, r float64) bool {
	prof := s.prof
	if prof == nil || prof.Query == nil || len(prof.Cuts) < 2 {
		return true
	}
	target, hasTarget := s.req.Target()
	width := influenceWidth(r)
	// An answer that lists the whole candidate set depends on who is in
	// it, wherever they are: no zone bounds an arrival or a departure.
	enumerates := s.req.EnumeratesCandidates()
	for i, a := range applied {
		if enumerates && (a.Inserted || a.Retired) && (s.req.Where == nil || s.req.Where.Matches(a.Tags) || s.req.Where.Matches(a.PrevTags)) {
			// (An insert's tags are Tags, a retirement's PrevTags; the
			// other of the two is empty.)
			return true
		}
		if a.Retired {
			// A retirement only removes motion. The candidate superset
			// provably contains every object that defines the envelope,
			// enters a zone, or blocks a member — removing anything
			// outside it leaves the envelope, the zones, and hence the
			// answer untouched, whether or not a predicate is in play
			// (the argument applies to the sub-MOD's superset verbatim).
			if a.OID == s.req.QueryOID || (hasTarget && a.OID == target) {
				return true
			}
			if _, ok := prof.Superset[a.OID]; ok {
				return true
			}
			continue
		}
		if a.TagsChanged && s.req.Where != nil &&
			s.req.Where.Matches(a.Tags) != s.req.Where.Matches(a.PrevTags) {
			// The flip moved a.OID across the predicate boundary, so it
			// joined or left the subscription's sub-MOD. This must run
			// before the ChangedFrom skip: a pure retag carries +Inf.
			if enumerates || a.OID == s.req.QueryOID || (hasTarget && a.OID == target) {
				return true
			}
			if _, ok := prof.Superset[a.OID]; ok {
				return true
			}
			if s.req.Where.Matches(a.Tags) {
				// Joined: the object's whole plan is new to the sub-MOD,
				// not just motion from ChangedFrom. An object that left
				// from outside the superset was spatially pruned from the
				// old sub-MOD, so its removal cannot move the envelope.
				full := motionBox(a.Traj, math.Inf(-1))
				if math.IsInf(prof.maxBound, 1) || boxGap(full, prof.qbox) <= prof.maxBound+width {
					af := a
					af.ChangedFrom = math.Inf(-1)
					af.Prev = nil
					if motionEntersZone(prof, af, width) {
						return true
					}
				}
			}
		}
		if a.ChangedFrom >= s.req.Te {
			// Positions inside the window are untouched by this update —
			// irrelevant no matter whose plan it is.
			continue
		}
		if a.OID == s.req.QueryOID || (hasTarget && a.OID == target) {
			return true
		}
		if _, ok := prof.Superset[a.OID]; ok {
			return true
		}
		if !math.IsInf(prof.maxBound, 1) && boxGap(boxes[i], prof.qbox) > prof.maxBound+width {
			// O(1) prefilter: even against the loosest slice bound, the
			// whole changed motion stays outside the influence zone.
			continue
		}
		if motionEntersZone(prof, a, width) {
			return true
		}
	}
	return false
}

// motionBox bounds tr's positions from time `from` on (the whole plan for
// -Inf): the position at the change point, every later vertex, and —
// because clamped evaluation parks the object at its last vertex — the
// tail is covered by that vertex too.
func motionBox(tr *trajectory.Trajectory, from float64) geom.AABB {
	if tr == nil {
		return geom.EmptyAABB()
	}
	if math.IsInf(from, -1) {
		return tr.BoundingBox()
	}
	box := geom.AABBOf(tr.At(from))
	for _, v := range tr.Verts {
		if v.T > from {
			box = box.ExtendPoint(v.Point())
		}
	}
	return box
}

// changedBox bounds everything an update moved: the new motion and the
// superseded motion from ChangedFrom on.
func changedBox(a mod.Applied) geom.AABB {
	box := motionBox(a.Traj, a.ChangedFrom)
	if a.Prev != nil {
		box = box.Union(motionBox(a.Prev, a.ChangedFrom))
	}
	return box
}

// boxGap is the minimum distance between two boxes (0 when they touch).
func boxGap(a, b geom.AABB) float64 {
	dx := math.Max(0, math.Max(a.MinX-b.MaxX, b.MinX-a.MaxX))
	dy := math.Max(0, math.Max(a.MinY-b.MaxY, b.MinY-a.MaxY))
	return math.Hypot(dx, dy)
}

// motionEntersZone tests the update's changed motion — the new plan and
// the plan it superseded (whose removal can matter just as much as the
// new path's arrival) — against the per-slice influence zone.
func motionEntersZone(prof *Profile, a mod.Applied, width float64) bool {
	cuts, bounds := prof.Cuts, prof.Bounds
	for i := 1; i < len(cuts); i++ {
		s0, s1 := cuts[i-1], cuts[i]
		if s1 <= a.ChangedFrom {
			continue
		}
		u := bounds[i-1]
		if math.IsInf(u, 1) {
			return true
		}
		lo := math.Max(s0, a.ChangedFrom)
		if a.Traj == nil {
			return true
		}
		if prune.MinCrispDist(a.Traj, prof.Query, lo, s1) <= u+width {
			return true
		}
		if a.Prev != nil && prune.MinCrispDist(a.Prev, prof.Query, lo, s1) <= u+width {
			return true
		}
	}
	return false
}

// diffResults compares two results and builds the event skeleton. changed
// is false when the answers are byte-identical.
func diffResults(prev, next engine.Result) (Event, bool) {
	var ev Event
	switch {
	case next.IsBool:
		ev.IsBool, ev.Bool = true, next.Bool
		return ev, prev.Bool != next.Bool || !prev.IsBool
	case next.Pairs != nil || prev.Pairs != nil:
		ev.Pairs = next.Pairs
		if len(prev.Pairs) != len(next.Pairs) {
			return ev, true
		}
		for k, v := range next.Pairs {
			if !slices.Equal(prev.Pairs[k], v) {
				return ev, true
			}
		}
		return ev, false
	default:
		ev.OIDs = next.OIDs
		ev.Added, ev.Removed = diffOIDs(prev.OIDs, next.OIDs)
		return ev, len(ev.Added) > 0 || len(ev.Removed) > 0
	}
}

// diffOIDs computes the sorted set difference both ways (inputs are the
// engine's deterministic sorted answers).
func diffOIDs(prev, next []int64) (added, removed []int64) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch {
		case prev[i] == next[j]:
			i++
			j++
		case prev[i] < next[j]:
			removed = append(removed, prev[i])
			i++
		default:
			added = append(added, next[j])
			j++
		}
	}
	removed = append(removed, prev[i:]...)
	added = append(added, next[j:]...)
	return added, removed
}

// engineBackend is the single-store Backend.
type engineBackend struct {
	store *mod.Store
	eng   *engine.Engine
	// verdicts counts what became of each dirty evaluation's seed, by
	// prune.Verdict. The hub's evaluations write it side by side; tests and
	// benchmarks read it (verdictCounts) to attribute every from-scratch
	// evaluation to its cause.
	verdicts [prune.Verdicts]atomic.Uint64
}

// verdictCounts returns the verdicts counted so far.
func (b *engineBackend) verdictCounts() (out [prune.Verdicts]uint64) {
	for v := range out {
		out[v] = b.verdicts[v].Load()
	}
	return out
}

// ForEachIndex lends the hub the engine's worker pool: a batch's dirty
// groups evaluate side by side on it, and engine.New(1) is the serial hub.
func (b *engineBackend) ForEachIndex(ctx context.Context, n int, fn func(i int) error) error {
	return b.eng.ForEachIndex(ctx, n, fn)
}

func (b *engineBackend) Apply(_ context.Context, updates []mod.Update) ([]mod.Applied, error) {
	return b.store.ApplyUpdates(updates)
}

// Evaluate answers through the engine and fingerprints the request from
// the evaluation's own pre-pass: the engine's memoized processor (just
// built by the Do, or installed by Revise — the lookup is a memo hit)
// holds the survivor superset, the per-slice bounds its sweep ran against
// and what the next evaluation can start from, so the profile costs no
// second snapshot, probe or sweep and speaks about exactly the snapshot the
// answer came from. A profile failure degrades to nil (always dirty), never
// to a wrong skip.
func (b *engineBackend) Evaluate(ctx context.Context, req engine.Request) (engine.Result, *Profile, error) {
	res, err := b.eng.Do(ctx, b.store, req)
	if err != nil {
		return res, nil, err
	}
	if !req.Kind.NeedsProcessor() {
		return res, nil, nil
	}
	prof, perr := b.profile(ctx, req)
	if perr != nil {
		prof = nil
	}
	return res, prof, nil
}

// Revise is Evaluate with a head start: the engine is offered the seed of
// the last evaluation and the batch applied since, and where the one patch
// rule allows (prune.Revise) it installs the successor processor in its
// memo first. The evaluation itself is the same two steps either way — Do,
// then the profile read off the memoized processor — so a patched answer
// and a rebuilt one come out of the same code.
func (b *engineBackend) Revise(ctx context.Context, req engine.Request, last *Profile, applied []mod.Applied) (engine.Result, *Profile, bool, error) {
	verdict := prune.NoSeed
	if last != nil && req.Kind.NeedsProcessor() {
		verdict = b.eng.Revise(ctx, b.store, req, last.seed, applied)
	}
	b.verdicts[verdict].Add(1)
	res, prof, err := b.Evaluate(ctx, req)
	return res, prof, verdict == prune.Patched, err
}

func (b *engineBackend) profile(ctx context.Context, req engine.Request) (*Profile, error) {
	q, err := b.store.Get(req.QueryOID)
	if err != nil {
		return nil, err
	}
	proc, err := b.eng.ProcessorWhereCtx(ctx, b.store, req.QueryOID, req.Tb, req.Te, req.Where)
	if err != nil {
		return nil, err
	}
	if k := req.Rank(); k > 1 {
		if err := proc.EnsureLevelsCtx(ctx, k); err != nil {
			return nil, err
		}
	}
	// The bounds must come from the same universe the answer did: the
	// unfiltered envelope sits below the sub-MOD's, and a too-low bound
	// shrinks the influence zone into wrong skips. The processor's are its
	// own pre-pass's, filter included; one built without a pre-pass (a
	// full-scan engine, a snapshot that raced a mutation) has none.
	cuts, bounds, err := proc.SliceBounds(ctx, req.Rank())
	if err != nil {
		return nil, err
	}
	if len(cuts) < 2 || len(bounds) != len(cuts)-1 {
		return nil, nil // unbounded fingerprint: always dirty, never wrong
	}
	ids := proc.SurvivorOIDs()
	set := make(map[int64]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	seed := prune.SeedOf(ctx, proc, req.Rank(), req.Where)
	return &Profile{Query: q, Cuts: cuts, Bounds: bounds, Superset: set, seed: seed}, nil
}

func (b *engineBackend) Radius() float64 { return b.store.Radius() }
