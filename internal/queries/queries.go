// Package queries implements the four categories of continuous
// probabilistic NN-query variants of the paper's Section 4, processed over
// the lower-envelope machinery (and, for the ranked variants, over the
// k-level envelopes that form the IPAC-NN tree's geometric dual), together
// with the naive baselines the paper's Figure 12 compares against.
//
// Semantics (with uncertainty radius r and zone width 4r):
//
//   - An object has non-zero probability of being the NN of the query at
//     time t iff its difference-distance function is within 4r of the
//     Level-1 lower envelope at t.
//   - It has non-zero probability of being a k-th highest-probability NN at
//     t iff it is within 4r of the Level-k envelope at t (levels are
//     pointwise nondecreasing, so "some level i <= k" reduces to level k).
//
// Category 1 (UQ11/UQ12/UQ13) asks ∃t / ∀t / ≥X%-of-time about a single
// object; Category 2 (UQ21/UQ22/UQ23) adds the rank parameter k;
// Categories 3 and 4 quantify over the whole MOD. Fixed-time variants
// evaluate the same predicates at one instant.
package queries

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/envelope"
	"repro/internal/trajectory"
)

// Package errors.
var (
	ErrUnknownOID = errors.New("queries: unknown object ID")
	ErrBadFrac    = errors.New("queries: fraction must be in [0, 1]")
	ErrBadRank    = errors.New("queries: rank k must be >= 1")
)

// Processor answers the UQ query variants for one query trajectory and
// window. Construction performs the O(N log N) envelope preprocessing; each
// Category 1/2 query then costs O(N) / O(kN) per the paper's Claims 1-2.
//
// Every interval variant — UQ11..UQ43, PossibleNNIntervals,
// PossibleRankKIntervals — is a reduction (non-empty / covers the window /
// total length >= x) of one *zone row*: BelowIntervals(f, Level-k, 4r), the
// times object f spends inside the rank-k zone. The processor keeps a zone
// table per level, one row per function of that level's scan set, and
// computes a row at most once; a burst of variants against one (query,
// window) therefore runs the interval scan once per object, not once per
// request. Rows are shared and read-only inside the package: the exported
// methods that hand intervals out (PossibleNNIntervals,
// PossibleRankKIntervals) return copies a caller may keep or modify, the
// predicates and retrievals return only booleans and fresh OID lists.
//
// All methods are safe for concurrent use: the distance functions, the
// Level-1 envelope and the candidate snapshot are immutable after
// construction, a zone row is filled under its own lock, and the lazily
// grown k-level envelopes (with their tables, which go when the rank basis
// grows) are guarded by a mutex. The per-OID kernels are pure, which is
// what lets the batch engine fan them across goroutines.
type Processor struct {
	QueryOID int64
	Tb, Te   float64
	R        float64

	// fns holds the distance functions the Level-1 envelope is built
	// from: every candidate in full mode, only the index survivors in
	// pruned mode (a pruned function never defines the lower envelope and
	// never enters the 4r zone, so the envelope — and every Level-1
	// answer — is unchanged by its absence). table is the same set in ID
	// order — the Level-1 scan set — and zone1 its zone rows against env1.
	fns   []*envelope.DistanceFunc
	table fnTable
	env1  *envelope.Envelope
	zone1 []zoneRow

	// pruned marks a processor built over an index pre-pass: its
	// candidates are the non-query members of snapshot, and one without a
	// function in table was excluded by the pre-pass. Such a candidate's
	// Level-1 answers are known without a distance function; deeper ranks
	// grow the basis below. (A full-scan processor's candidates are exactly
	// its functions.)
	pruned    bool
	snapshot  Universe
	q         *trajectory.Trajectory
	countOnce sync.Once
	nCands    int // < 0: not counted yet (a successor counts on first use)

	// The rank basis: the function set the k-level envelopes are built
	// over, guarded by mu. In full mode it is the complete candidate set
	// from construction (basisRank unbounded). In pruned mode it starts as
	// the Level-1 survivors (basisRank 1) and grows on demand — through
	// the rank expander when one is attached (the index-probed rank-k
	// survivor superset, see SetRankExpander), otherwise through the lazy
	// full build. Envelope values over any conservative rank-k superset
	// match the full set for every level <= k, because a function outside
	// the widened rank-k zone is never among the k pointwise smallest.
	// zones[j] holds the zone rows of the basis against levels[j].
	mu         sync.Mutex
	levels     []*envelope.Envelope // levels[0] is a Level-1 envelope, grown on demand
	zones      [][]zoneRow
	basisFns   []*envelope.DistanceFunc
	basisTable fnTable
	basisRank  int // ranks 1..basisRank answer exactly over the basis
	expand     func(ctx context.Context, k int) ([]int64, error)
	bounds     func(ctx context.Context, k int) (cuts, bounds []float64, err error)
	fullBuilds int // lazy full builds performed (observability)
}

// Universe describes a pruned processor's candidate population without
// listing it: a store snapshot in OID order — shared and read-only, it may
// hold the query trajectory and objects outside the population — and the
// membership test that picks the candidates out of it (nil: every snapshot
// object). The query trajectory is never a candidate.
type Universe struct {
	Trajs  []*trajectory.Trajectory
	Member func(oid int64) bool
}

// Find returns the snapshot trajectory of a candidate, nil for anything
// else (the query object included).
func (u Universe) Find(oid, queryOID int64) *trajectory.Trajectory {
	i, ok := slices.BinarySearchFunc(u.Trajs, oid, func(tr *trajectory.Trajectory, id int64) int { return cmp.Compare(tr.OID, id) })
	if !ok || oid == queryOID || (u.Member != nil && !u.Member(oid)) {
		return nil
	}
	return u.Trajs[i]
}

// each calls fn for every candidate in OID order until it returns false.
func (u Universe) each(queryOID int64, fn func(tr *trajectory.Trajectory) bool) {
	for _, tr := range u.Trajs {
		if tr.OID == queryOID || (u.Member != nil && !u.Member(tr.OID)) {
			continue
		}
		if !fn(tr) {
			return
		}
	}
}

// count returns the number of candidates: a search when every snapshot
// object is one, a walk under a membership test.
func (u Universe) count(queryOID int64) int {
	n := 0
	if u.Member == nil {
		n = len(u.Trajs)
		if _, ok := slices.BinarySearchFunc(u.Trajs, queryOID, func(tr *trajectory.Trajectory, id int64) int { return cmp.Compare(tr.OID, id) }); ok {
			n--
		}
		return n
	}
	u.each(queryOID, func(*trajectory.Trajectory) bool {
		n++
		return true
	})
	return n
}

// zoneRow is one object's zone row at one level: the maximal intervals its
// distance function spends within 4r of that level, computed by the first
// reader and shared by all later ones.
type zoneRow struct {
	mu    sync.Mutex
	ready atomic.Bool
	ivs   []envelope.TimeInterval
}

// noIntervals is the computed-and-empty row, so that a nil row always
// means "not computed yet".
var noIntervals = []envelope.TimeInterval{}

func (r *zoneRow) get(f *envelope.DistanceFunc, env *envelope.Envelope, width float64) []envelope.TimeInterval {
	if r.ready.Load() {
		return r.ivs
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.ready.Load() {
		r.set(envelope.BelowIntervals(f, env, width))
	}
	return r.ivs
}

// set installs a computed row. Callers own the row: get under its lock,
// a constructor before the processor is shared.
func (r *zoneRow) set(ivs []envelope.TimeInterval) {
	if ivs == nil {
		ivs = noIntervals
	}
	r.ivs = ivs
	r.ready.Store(true)
}

// peek returns the row if it has been computed, nil otherwise.
func (r *zoneRow) peek() []envelope.TimeInterval {
	if r.ready.Load() {
		return r.ivs
	}
	return nil
}

// zoneLevel is what an interval kernel scans at one rank: the scan set in
// ID order, the level, and the zone rows of the one against the other.
type zoneLevel struct {
	fns  fnTable
	env  *envelope.Envelope
	rows []zoneRow
}

// fnTable resolves an OID to its distance function by binary search: the
// functions in ID order. A processor is built per cold query, and a hash
// map of its candidates was a measurable part of that build.
type fnTable []*envelope.DistanceFunc

func byFuncID(a, b *envelope.DistanceFunc) int { return cmp.Compare(a.ID, b.ID) }

func byOID(a, b *trajectory.Trajectory) int { return cmp.Compare(a.OID, b.OID) }

// newFnTable indexes fns, sharing the slice when it already is in ID order
// (it is whenever the trajectories came from a store snapshot).
func newFnTable(fns []*envelope.DistanceFunc) fnTable {
	if !slices.IsSortedFunc(fns, byFuncID) {
		fns = slices.Clone(fns)
		slices.SortFunc(fns, byFuncID)
	}
	return fns
}

func (t fnTable) index(oid int64) (int, bool) {
	return slices.BinarySearchFunc(t, oid, func(f *envelope.DistanceFunc, id int64) int { return cmp.Compare(f.ID, id) })
}

func (t fnTable) get(oid int64) *envelope.DistanceFunc {
	i, ok := t.index(oid)
	if !ok {
		return nil
	}
	return t[i]
}

func (t fnTable) ids() []int64 {
	out := make([]int64, len(t))
	for i, f := range t {
		out[i] = f.ID
	}
	return out
}

// fullRank marks a basis covering every rank (the complete function set).
const fullRank = math.MaxInt

// NewProcessor builds the envelope preprocessing for the query trajectory
// q over [tb, te] with shared uncertainty radius r.
func NewProcessor(trs []*trajectory.Trajectory, q *trajectory.Trajectory, tb, te, r float64) (*Processor, error) {
	if r <= 0 {
		return nil, fmt.Errorf("queries: nonpositive radius %g", r)
	}
	fns, err := envelope.BuildDistanceFuncs(trs, q, tb, te)
	if err != nil {
		return nil, err
	}
	if len(fns) == 0 {
		return nil, envelope.ErrNoFunctions
	}
	env1, err := envelope.LowerEnvelope(fns, tb, te)
	if err != nil {
		return nil, err
	}
	table := newFnTable(fns)
	return &Processor{
		QueryOID: q.OID, Tb: tb, Te: te, R: r,
		fns: fns, table: table, env1: env1, zone1: make([]zoneRow, len(table)),
		q: q, nCands: len(table),
		levels:   []*envelope.Envelope{env1},
		basisFns: fns, basisTable: table, basisRank: fullRank,
	}, nil
}

// NewProcessorPruned builds the envelope preprocessing over the surviving
// candidates of an index pre-pass. survivors must be a conservative
// superset of every object whose difference-distance function comes within
// the 4r pruning zone of the Level-1 lower envelope anywhere in the window
// (internal/prune computes such a set from the store's spatial index, with
// a safety margin covering the TimeEps slack of the fixed-time tests).
//
// Answers are identical to NewProcessor's for every query variant:
// Level-1 queries run over the survivors alone (a pruned object's zone
// membership is empty by the superset guarantee, and the guaranteed-NN and
// threshold paths read only the UQ31 members), while the rank-k (k>=2)
// paths — whose envelopes depend on more of the candidate set — grow the
// function set on first use.
func NewProcessorPruned(trs []*trajectory.Trajectory, q *trajectory.Trajectory, tb, te, r float64, survivors []int64) (*Processor, error) {
	return NewProcessorPrunedCtx(context.Background(), trs, q, tb, te, r, survivors)
}

// NewProcessorPrunedCtx is NewProcessorPruned with construction-time
// context checks: the per-candidate distance-function build loop is where
// the O(survivors · m) work happens, so a canceled request stops there.
func NewProcessorPrunedCtx(ctx context.Context, trs []*trajectory.Trajectory, q *trajectory.Trajectory, tb, te, r float64, survivors []int64) (*Processor, error) {
	if r <= 0 {
		return nil, fmt.Errorf("queries: nonpositive radius %g", r)
	}
	// Everything below is keyed by position in OID order — survivors by
	// binary search, the functions and the candidate snapshot by
	// construction — so a build allocates neither a hash map nor a list of
	// its candidates: trs itself is the snapshot. Store snapshots and the
	// pre-pass hand both lists over sorted; anything else is put in order
	// first.
	if !slices.IsSortedFunc(trs, byOID) {
		trs = slices.Clone(trs)
		slices.SortFunc(trs, byOID)
	}
	if !slices.IsSorted(survivors) {
		survivors = slices.Clone(survivors)
		slices.Sort(survivors)
	}
	fns := make([]*envelope.DistanceFunc, 0, len(survivors))
	n := 0
	for _, tr := range trs {
		if tr.OID == q.OID {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Validate every candidate against the window — including pruned
		// ones — so construction fails exactly when the full build would.
		if err := envelope.CheckWindow(tr, q, tb, te); err != nil {
			return nil, fmt.Errorf("oid %d: %w", tr.OID, err)
		}
		n++
		if _, ok := slices.BinarySearch(survivors, tr.OID); ok {
			f, err := envelope.NewDistanceFunc(tr.OID, tr, q, tb, te)
			if err != nil {
				return nil, fmt.Errorf("oid %d: %w", tr.OID, err)
			}
			fns = append(fns, f)
		}
	}
	if n == 0 {
		return nil, envelope.ErrNoFunctions
	}
	if len(fns) == 0 {
		// Defensive: an empty survivor set cannot carry the envelope;
		// degrade to the full build.
		return NewProcessor(trs, q, tb, te, r)
	}
	env1, err := envelope.LowerEnvelope(fns, tb, te)
	if err != nil {
		return nil, err
	}
	return &Processor{
		QueryOID: q.OID, Tb: tb, Te: te, R: r,
		fns: fns, table: fns, env1: env1, zone1: make([]zoneRow, len(fns)),
		pruned: true, snapshot: Universe{Trajs: trs}, q: q, nCands: n,
		levels:   []*envelope.Envelope{env1},
		basisFns: fns, basisTable: fns, basisRank: 1,
	}, nil
}

// SetRankExpander attaches the rank-k survivor oracle of the index layer:
// expand(ctx, k) must return a conservative superset of every candidate
// whose difference-distance function comes within the 4r zone of the
// Level-k envelope somewhere in the window. With an expander attached, a
// rank-k query (k >= 2) grows the basis to the rank-k survivors instead of
// falling back to the lazy full build. No-op on a full-scan processor.
func (p *Processor) SetRankExpander(expand func(ctx context.Context, k int) ([]int64, error)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.basisRank == fullRank {
		return
	}
	p.expand = expand
}

// SetSliceBounds attaches the pre-pass's per-slice envelope bounds to the
// processor it built: bounds(ctx, k) must return the slice cuts of the
// window and, per slice, the upper bound on the Level-k envelope that the
// rank-k survivor sweep ran (or would run) against, over the processor's
// own snapshot. The continuous-query layer fingerprints a standing
// request with them instead of probing the index a second time.
func (p *Processor) SetSliceBounds(bounds func(ctx context.Context, k int) (cuts, bounds []float64, err error)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bounds = bounds
}

// SliceBounds returns the cuts and per-slice Level-k envelope bounds of the
// pre-pass behind this processor (see SetSliceBounds); all nil when none
// is attached — a full-scan build has no pre-pass.
func (p *Processor) SliceBounds(ctx context.Context, k int) (cuts, bounds []float64, err error) {
	p.mu.Lock()
	fn := p.bounds
	p.mu.Unlock()
	if fn == nil {
		return nil, nil, nil
	}
	return fn(ctx, k)
}

// FullBuilds reports how many lazy full function-set builds the processor
// has performed — 0 when every deep-rank query was served by the rank
// expander (observability for the rank-aware pruning gate).
func (p *Processor) FullBuilds() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fullBuilds
}

// PrunedCount reports how many candidates the index pre-pass excluded
// (0 for a full-scan processor) — for stats and benchmark reporting.
func (p *Processor) PrunedCount() int { return p.CandidateCount() - len(p.fns) }

// ensureFullLocked completes the distance-function set, building it on
// first use in pruned mode. The returned slice is write-once: callers use
// the returned reference, never the field. Caller holds p.mu.
func (p *Processor) ensureFullLocked(ctx context.Context) ([]*envelope.DistanceFunc, error) {
	if p.basisRank == fullRank {
		return p.basisFns, nil
	}
	// Complete the basis, reusing already-built survivor functions and
	// checking ctx between the per-candidate builds (the expensive part of
	// a lazy full build).
	fns := make([]*envelope.DistanceFunc, 0, p.CandidateCount())
	var err error
	p.snapshot.each(p.QueryOID, func(tr *trajectory.Trajectory) bool {
		if err = ctx.Err(); err != nil {
			return false
		}
		f := p.basisTable.get(tr.OID)
		if f == nil {
			if f, err = envelope.NewDistanceFunc(tr.OID, tr, p.q, p.Tb, p.Te); err != nil {
				err = fmt.Errorf("oid %d: %w", tr.OID, err)
				return false
			}
		}
		fns = append(fns, f)
		return true
	})
	if err != nil {
		return nil, err
	}
	wasComplete := len(p.basisFns) == len(fns)
	p.basisFns, p.basisTable, p.basisRank = fns, fns, fullRank
	p.fullBuilds++
	if !wasComplete {
		// Deeper levels (and their zone rows) were built over the smaller
		// basis; zoneAt rebuilds them over the completed set on next use.
		p.levels, p.zones = p.levels[:1], nil
	}
	return fns, nil
}

// growBasisLocked guarantees the basis answers ranks 1..k exactly. With a
// rank expander attached it unions in the index-probed rank-k survivors
// (building distance functions only for the newcomers); otherwise it
// degrades to the lazy full build. Caller holds p.mu.
func (p *Processor) growBasisLocked(ctx context.Context, k int) error {
	if k <= p.basisRank {
		return nil
	}
	if p.expand == nil {
		_, err := p.ensureFullLocked(ctx)
		return err
	}
	ids, err := p.expand(ctx, k)
	if err != nil {
		return err
	}
	var added []*envelope.DistanceFunc
	for _, id := range ids {
		if p.basisTable.get(id) != nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		tr := p.snapshot.Find(id, p.QueryOID)
		if tr == nil {
			continue // expander over a different snapshot; ignore strangers
		}
		f, err := envelope.NewDistanceFunc(id, tr, p.q, p.Tb, p.Te)
		if err != nil {
			return fmt.Errorf("oid %d: %w", id, err)
		}
		added = append(added, f)
	}
	if len(added) > 0 {
		// Copy-on-write: the initial basis is fns/table, which the Level-1
		// paths read lock-free, so grow a copy, never the original. ID order
		// is the table's invariant, and as the canonical function order it
		// keeps envelope construction independent of the order survivors
		// were discovered in.
		fns := make([]*envelope.DistanceFunc, 0, len(p.basisFns)+len(added))
		fns = append(append(fns, p.basisFns...), added...)
		slices.SortFunc(fns, byFuncID)
		p.basisFns, p.basisTable = fns, fns
		// Deeper levels (and their zone rows) were built over the smaller
		// basis.
		p.levels, p.zones = p.levels[:1], nil
	}
	p.basisRank = k
	return nil
}

// Envelope returns the Level-1 lower envelope.
func (p *Processor) Envelope() *envelope.Envelope { return p.env1 }

// width returns the pruning-zone width 4r.
func (p *Processor) width() float64 { return 4 * p.R }

// zoneAt returns what an interval kernel scans at rank k. Rank 1 is fixed
// at construction: the Level-1 zone only ever admits survivors. Deeper
// ranks scan the rank basis — grown to cover rank k first, via the rank
// expander when one is attached, else the lazy full build — against the
// k-th envelope, built lazily over that basis.
func (p *Processor) zoneAt(ctx context.Context, k int) (zoneLevel, error) {
	if k < 1 {
		return zoneLevel{}, ErrBadRank
	}
	if k == 1 {
		return zoneLevel{fns: p.table, env: p.env1, rows: p.zone1}, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.growBasisLocked(ctx, k); err != nil {
		return zoneLevel{}, err
	}
	if k > len(p.levels) && len(p.levels) < len(p.basisFns) {
		lv, err := envelope.KLevelEnvelopes(p.basisFns, p.Tb, p.Te, k)
		if err != nil {
			return zoneLevel{}, err
		}
		p.levels, p.zones = lv, nil
	}
	// Fewer functions than k: the deepest available level is the correct
	// bound (an object within 4r of it can be ranked <= k). The basis
	// always carries at least min(k, N) functions — at every instant the k
	// pointwise-smallest functions sit inside the rank-k zone, so a
	// conservative survivor superset keeps them all.
	j := min(k, len(p.levels)) - 1
	if len(p.zones) < len(p.levels) {
		p.zones = append(p.zones, make([][]zoneRow, len(p.levels)-len(p.zones))...)
	}
	if p.zones[j] == nil {
		p.zones[j] = make([]zoneRow, len(p.basisTable))
	}
	return zoneLevel{fns: p.basisTable, env: p.levels[j], rows: p.zones[j]}, nil
}

// EnsureLevels builds the k-level envelopes up front so that subsequent
// concurrent rank-k queries only take the level lock briefly. Callers that
// fan per-OID work across goroutines (the batch engine) call it once with
// the largest rank in the batch.
func (p *Processor) EnsureLevels(k int) error {
	return p.EnsureLevelsCtx(context.Background(), k)
}

// EnsureLevelsCtx is EnsureLevels under a context: basis growth and the
// k-level construction are the expensive lazy steps of a ranked query, so
// a canceled request stops inside them instead of completing the build.
func (p *Processor) EnsureLevelsCtx(ctx context.Context, k int) error {
	_, err := p.zoneAt(ctx, k)
	return err
}

// CandidateOIDs returns the sorted OIDs of the non-query objects the
// processor answers about, pruned ones included — the domain of the
// whole-MOD Categories 3 and 4. It walks the candidate snapshot on every
// call; an executor fanning a filter out per object wants ScanOIDs, which
// leaves out the candidates whose answer the pre-pass already settled.
func (p *Processor) CandidateOIDs() []int64 {
	if !p.pruned {
		return p.table.ids()
	}
	out := make([]int64, 0, p.CandidateCount())
	p.snapshot.each(p.QueryOID, func(tr *trajectory.Trajectory) bool {
		out = append(out, tr.OID)
		return true
	})
	return out
}

// CandidateCount reports the number of non-query candidates without
// listing them (Explain accounting on the query hot path).
func (p *Processor) CandidateCount() int {
	p.countOnce.Do(func() {
		if p.nCands < 0 {
			p.nCands = p.snapshot.count(p.QueryOID)
		}
	})
	return p.nCands
}

// ScanOIDs returns the sorted OIDs of the rank-k scan set: the candidates
// whose rank-k zone row can be non-empty. Every other candidate was ruled
// out of the zone by the pre-pass, so its answer to a whole-MOD filter is
// known without a test — false, or true when the filter holds for an empty
// row (see TrivialFraction). The caller owns the returned slice.
func (p *Processor) ScanOIDs(k int) ([]int64, error) {
	z, err := p.zoneAt(context.Background(), k)
	if err != nil {
		return nil, err
	}
	return z.fns.ids(), nil
}

// TrivialFraction reports whether "inside the zone for at least fraction x
// of [tb, te]" already holds for an object that never enters it: the
// requirement rounds to zero length, so every candidate qualifies, pruned
// ones included, and the answer is the candidate list itself.
func TrivialFraction(x, tb, te float64) bool { return x*(te-tb)-envelope.TimeEps <= 0 }

// IntersectSorted returns the elements common to two ascending-sorted OID
// lists, in ascending order. It is the domain-restriction primitive of
// shard-local refinement: intersecting the processor's (sorted) candidate
// domain with a shard's own sorted survivor list yields that shard's share
// of a whole-MOD filter without disturbing the deterministic OID order the
// answers are emitted in.
func IntersectSorted(a, b []int64) []int64 {
	var out []int64
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			out = append(out, a[0])
			a, b = a[1:], b[1:]
		}
	}
	return out
}

// SurvivorOIDs returns the sorted OIDs of the current survivor basis —
// every candidate the index pre-pass could not rule out of the (rank-k,
// if the basis was grown) 4r zone, which in full-scan mode is every
// candidate. The continuous-query layer uses it as a subscription's
// dependency superset: an update to an object outside it provably cannot
// redefine the envelope or any zone membership.
func (p *Processor) SurvivorOIDs() []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.basisTable.ids()
}

// fn returns the object's distance function, erroring on unknown OIDs and
// on pruned candidates (which have none built). Level-1 query paths use
// lookup instead so pruned candidates answer without a function.
func (p *Processor) fn(oid int64) (*envelope.DistanceFunc, error) {
	f := p.table.get(oid)
	if f == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownOID, oid)
	}
	return f, nil
}

// lookup resolves an OID to its distance function. Known-but-pruned
// candidates have none built; isPruned distinguishes them from unknown
// OIDs (which are an error, exactly as in full mode).
func (p *Processor) lookup(oid int64) (f *envelope.DistanceFunc, isPruned bool, err error) {
	if f := p.table.get(oid); f != nil {
		return f, false, nil
	}
	if p.pruned && p.snapshot.Find(oid, p.QueryOID) != nil {
		return nil, true, nil
	}
	return nil, false, fmt.Errorf("%w: %d", ErrUnknownOID, oid)
}

// row returns the object's zone row at rank k — the maximal intervals its
// distance function spends within 4r of the Level-k envelope — computing it
// on first use. The row is the table's own: callers inside the package
// reduce it, they never modify or publish it. A candidate outside the
// rank's scan set has an empty row by the pre-pass's guarantee.
func (p *Processor) row(oid int64, k int) ([]envelope.TimeInterval, error) {
	if _, _, err := p.lookup(oid); err != nil {
		return nil, err
	}
	z, err := p.zoneAt(context.Background(), k)
	if err != nil {
		return nil, err
	}
	i, ok := z.fns.index(oid)
	if !ok {
		return nil, nil
	}
	return z.rows[i].get(z.fns[i], z.env, p.width()), nil
}

// scan returns, in OID order, the members of the rank-k scan set whose
// zone row satisfies keep.
func (p *Processor) scan(k int, keep func(row []envelope.TimeInterval) bool) ([]int64, error) {
	z, err := p.zoneAt(context.Background(), k)
	if err != nil {
		return nil, err
	}
	var out []int64
	for i, f := range z.fns {
		if keep(z.rows[i].get(f, z.env, p.width())) {
			out = append(out, f.ID)
		}
	}
	return out, nil
}

// The three reductions of a zone row.

func nonEmpty(row []envelope.TimeInterval) bool { return len(row) > 0 }

func (p *Processor) covers(row []envelope.TimeInterval) bool { return coversWindow(row, p.Tb, p.Te) }

func (p *Processor) atLeast(x float64) func(row []envelope.TimeInterval) bool {
	need := x*(p.Te-p.Tb) - envelope.TimeEps
	return func(row []envelope.TimeInterval) bool { return envelope.TotalLength(row) >= need }
}

// published copies a zone row for a caller outside the package (nil for
// the empty row, as an interval scan itself reports it).
func published(row []envelope.TimeInterval, err error) ([]envelope.TimeInterval, error) {
	if err != nil || len(row) == 0 {
		return nil, err
	}
	return slices.Clone(row), nil
}

// PossibleNNIntervals returns the maximal time intervals during which the
// object has non-zero probability of being the query's nearest neighbor —
// the membership intervals of the 4r pruning zone. The caller owns the
// returned slice.
func (p *Processor) PossibleNNIntervals(oid int64) ([]envelope.TimeInterval, error) {
	return published(p.row(oid, 1))
}

// PossibleRankKIntervals is the ranked analogue against the Level-k
// envelope.
func (p *Processor) PossibleRankKIntervals(oid int64, k int) ([]envelope.TimeInterval, error) {
	return published(p.row(oid, k))
}

// --- Category 1: single-trajectory predicates ---

// UQ11 reports whether the object has non-zero probability of being a NN
// to the query at some time during the window (∃t).
func (p *Processor) UQ11(oid int64) (bool, error) { return p.UQ21(oid, 1) }

// UQ12 reports whether the object has non-zero probability of being a NN
// throughout the entire window (∀t).
func (p *Processor) UQ12(oid int64) (bool, error) { return p.UQ22(oid, 1) }

// UQ13 reports whether the object has non-zero probability of being a NN
// for at least fraction x of the window (the paper's X% of [tb, te]).
func (p *Processor) UQ13(oid int64, x float64) (bool, error) { return p.UQ23(oid, 1, x) }

// --- Category 2: ranked single-trajectory predicates ---

// UQ21 reports whether the object can be a k-th highest-probability NN at
// some time (∃t, rank <= k).
func (p *Processor) UQ21(oid int64, k int) (bool, error) {
	row, err := p.row(oid, k)
	return err == nil && nonEmpty(row), err
}

// UQ22 reports whether the object can be a k-th highest-probability NN
// throughout the window (∀t, rank <= k).
func (p *Processor) UQ22(oid int64, k int) (bool, error) {
	row, err := p.row(oid, k)
	return err == nil && p.covers(row), err
}

// UQ23 reports whether the object can be a k-th highest-probability NN at
// least fraction x of the window.
func (p *Processor) UQ23(oid int64, k int, x float64) (bool, error) {
	if x < 0 || x > 1 {
		return false, ErrBadFrac
	}
	row, err := p.row(oid, k)
	return err == nil && p.atLeast(x)(row), err
}

// --- Category 3: whole-MOD retrieval ---

// UQ31 retrieves all objects with non-zero probability of being a NN at
// some time during the window (equivalently: the unpruned survivors, the
// trajectories appearing in the IPAC-NN tree).
func (p *Processor) UQ31() []int64 {
	out, _ := p.scan(1, nonEmpty) // rank 1 is fixed at construction: no error
	return out
}

// UQ32 retrieves all objects with non-zero probability throughout the
// entire window.
func (p *Processor) UQ32() []int64 {
	out, _ := p.scan(1, p.covers)
	return out
}

// UQ33 retrieves all objects with non-zero probability at least fraction x
// of the window.
func (p *Processor) UQ33(x float64) ([]int64, error) { return p.UQ43(1, x) }

// --- Category 4: ranked whole-MOD retrieval ---

// UQ41 retrieves all objects that can be a k-th highest-probability NN at
// some time.
func (p *Processor) UQ41(k int) ([]int64, error) { return p.scan(k, nonEmpty) }

// UQ42 retrieves all objects that can be a k-th highest-probability NN
// throughout the window.
func (p *Processor) UQ42(k int) ([]int64, error) { return p.scan(k, p.covers) }

// UQ43 retrieves all objects that can be a k-th highest-probability NN at
// least fraction x of the window.
func (p *Processor) UQ43(k int, x float64) ([]int64, error) {
	if x < 0 || x > 1 {
		return nil, ErrBadFrac
	}
	if TrivialFraction(x, p.Tb, p.Te) {
		// Every candidate qualifies (an empty membership set has total
		// length 0 >= need), including pruned ones, exactly as in a full
		// scan — once the level itself is known to build.
		if _, err := p.zoneAt(context.Background(), k); err != nil {
			return nil, err
		}
		return p.CandidateOIDs(), nil
	}
	return p.scan(k, p.atLeast(x))
}

// --- fixed-time (t = tf) variants ---

// IsPossibleNNAt reports whether the object has non-zero probability of
// being the NN at the instant tf.
func (p *Processor) IsPossibleNNAt(oid int64, tf float64) (bool, error) {
	f, isPruned, err := p.lookup(oid)
	if err != nil {
		return false, err
	}
	if isPruned {
		// The pre-pass margin exceeds the TimeEps slack of this test.
		return false, nil
	}
	return f.Value(tf) <= p.env1.ValueAt(tf)+p.width()+envelope.TimeEps, nil
}

// PossibleNNAt retrieves all objects with non-zero probability of being
// the NN at the instant tf.
func (p *Processor) PossibleNNAt(tf float64) []int64 {
	out, _ := p.PossibleRankKAt(tf, 1) // rank 1 is fixed at construction: no error
	return out
}

// GuaranteedNNIntervals returns the maximal intervals during which the
// object is *certainly* the query's nearest neighbor: its farthest
// possible distance stays below every other object's nearest possible
// distance (the certain counterpart of PossibleNNIntervals; cf. the
// upper-envelope approach of the paper's related work [12]).
//
// The comparison runs against the UQ31 members only, the set
// ProbabilitySeries reads: an object outside the 4r zone throughout has
// d_j > L1 + 4r everywhere, and wherever the target is certain L1 is the
// target itself, so such an object can never break d + 4r <= d_j. A lone
// member is therefore certain over the whole window.
func (p *Processor) GuaranteedNNIntervals(oid int64) ([]envelope.TimeInterval, error) {
	if _, _, err := p.lookup(oid); err != nil {
		return nil, err
	}
	kept := p.keptFns()
	if len(kept) == 1 && kept[0].ID == oid {
		return []envelope.TimeInterval{{T0: p.Tb, T1: p.Te}}, nil
	}
	return envelope.GuaranteedNNIntervals(kept, oid, p.env1, p.R), nil
}

// keptFns returns the distance functions of the UQ31 members, in OID
// order: the only objects with non-zero NN probability anywhere.
func (p *Processor) keptFns() []*envelope.DistanceFunc {
	kept := p.UQ31()
	fns := make([]*envelope.DistanceFunc, len(kept))
	for i, id := range kept {
		fns[i] = p.table.get(id)
	}
	return fns
}

// IsPossibleRankKAt reports whether the object has non-zero probability of
// being a k-th highest-probability NN at the instant tf.
func (p *Processor) IsPossibleRankKAt(oid int64, tf float64, k int) (bool, error) {
	if _, _, err := p.lookup(oid); err != nil {
		return false, err
	}
	z, err := p.zoneAt(context.Background(), k)
	if err != nil {
		return false, err
	}
	f := z.fns.get(oid)
	if f == nil {
		return false, nil // outside the rank-k zone by the pre-pass
	}
	return f.Value(tf) <= z.env.ValueAt(tf)+p.width()+envelope.TimeEps, nil
}

// PossibleRankKAt retrieves all objects with non-zero probability of being
// a k-th highest-probability NN at the instant tf.
func (p *Processor) PossibleRankKAt(tf float64, k int) ([]int64, error) {
	z, err := p.zoneAt(context.Background(), k)
	if err != nil {
		return nil, err
	}
	bound := z.env.ValueAt(tf) + p.width() + envelope.TimeEps
	var out []int64
	for _, f := range z.fns {
		if f.Value(tf) <= bound {
			out = append(out, f.ID)
		}
	}
	return out, nil
}

// --- helpers ---

func coversWindow(ivs []envelope.TimeInterval, tb, te float64) bool {
	return len(ivs) == 1 &&
		ivs[0].T0 <= tb+envelope.TimeEps &&
		ivs[0].T1 >= te-envelope.TimeEps
}

func sortIDs(ids []int64) {
	slices.Sort(ids)
}
