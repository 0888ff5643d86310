package mod

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/sindex"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// This file is the live-ingestion surface of the store: location updates
// revise or extend existing motion plans (or insert brand-new objects), and
// the spatial index is maintained *incrementally*, one step per batch.
// ApplyUpdates applies a whole batch in one critical section of s.mu and
// then chains the cached segment R-tree across all of the batch's versions
// with one persistent Inserted call (maintainIndexes), instead of
// invalidating the (version, fanout) cache —
// so a fleet reporting positions never costs a standing query workload an
// O(n log n) rebuild, and a batch copies each index node it touches once.
// ApplyUpdate is a batch of one through the same step. Lock
// order: idxMu, then mu (as BuildIndex takes them); the step takes idxMu
// only after the batch has released mu.

// Live-ingestion errors.
var (
	// ErrStaleVertex reports an update whose vertex times are not
	// strictly increasing, or whose first time is at or before the plan's
	// first vertex (a revision that would keep no vertex standing).
	ErrStaleVertex = errors.New("mod: appended vertex time must exceed the last vertex time")
	// ErrShortInsert reports an ingest update that targets an unknown OID
	// with fewer than the two vertices a valid trajectory needs.
	ErrShortInsert = errors.New("mod: inserting via ingest needs at least two vertices")
	// ErrRetireConflict reports a retire update that also carries vertices
	// or tags — retirement is terminal, there is no state to install.
	ErrRetireConflict = errors.New("mod: retire update must carry no vertices or tags")
)

// Update is one ingest item: new vertices for object OID, in time order.
// If the store does not hold OID they become a new trajectory (at least
// two vertices). If it does, the vertices *revise the plan from their
// first timestamp onward*: vertices at or after Verts[0].T are dropped
// and the new ones spliced on — a pure extension when Verts[0].T is past
// the current plan end, a mid-plan route revision otherwise (the paper's
// Section 2.1 model: the server knows full trip plans, and a location
// update is a deviation that rewrites the plan's future). Updates are the
// wire currency of the live layer — the modserver ingest op and the
// cluster router carry them verbatim.
type Update struct {
	OID   int64               `json:"oid"`
	Verts []trajectory.Vertex `json:"verts"`
	// Tags, when non-nil, replaces the object's tag set (empty clears
	// it); nil leaves tags untouched. An update with Tags and no Verts
	// is a pure tag flip: valid only for existing objects, geometry
	// unchanged (Applied.ChangedFrom = +Inf).
	Tags *[]string `json:"tags,omitempty"`
	// Retire removes the object from the store: its trajectory and tags
	// are dropped, the live index forgets it, and subsequent queries
	// naming the OID answer ErrUnknownOID. A retire update must carry no
	// Verts and no Tags; retiring an unknown OID is ErrNotFound. The OID
	// may later be re-inserted by an ordinary ≥2-vertex update.
	Retire bool `json:"retire,omitempty"`
}

// Applied describes one applied update: whether it inserted a new object,
// the time from which the object's motion changed (-Inf for an insert),
// the plan the update superseded (nil for an insert), and the post-update
// trajectory. The continuous-query layer feeds Applied into its dirty
// test: positions before ChangedFrom are untouched, so a subscription
// whose window ends earlier cannot be affected, and both Prev and Traj
// must stay clear of a subscription's influence zone for the update to be
// provably irrelevant after ChangedFrom.
type Applied struct {
	OID         int64
	Inserted    bool
	ChangedFrom float64
	Prev        *trajectory.Trajectory
	Traj        *trajectory.Trajectory
	// TagsChanged reports that the update changed the object's tag set;
	// Tags and PrevTags are the canonical post- and pre-update sets. A
	// pure tag flip carries ChangedFrom = +Inf (no motion changed), so
	// continuous-query dirty tests must consider tag flips before any
	// ChangedFrom-based time cutoff.
	TagsChanged bool
	Tags        []string
	PrevTags    []string
	// Retired reports that the update removed the object: Traj is nil,
	// Prev is the plan it held at retirement, and ChangedFrom is -Inf
	// (every instant the object used to occupy is now unoccupied, so any
	// window Prev's motion touched may change its answer). A tagged
	// object's retirement also sets TagsChanged with PrevTags (Tags nil).
	Retired bool
}

// checkVerts validates an update's vertices: finite, strictly increasing.
func checkVerts(oid int64, verts []trajectory.Vertex) error {
	if len(verts) == 0 {
		return fmt.Errorf("%w: empty update for %d", ErrStaleVertex, oid)
	}
	last := trajectory.Vertex{T: math.Inf(-1)}
	for _, v := range verts {
		if math.IsNaN(v.X) || math.IsInf(v.X, 0) || math.IsNaN(v.Y) || math.IsInf(v.Y, 0) ||
			math.IsNaN(v.T) || math.IsInf(v.T, 0) {
			return fmt.Errorf("%w: vertex at t=%g", trajectory.ErrNonFinite, v.T)
		}
		if v.T <= last.T {
			return fmt.Errorf("%w: %d (t=%g after t=%g)", ErrStaleVertex, oid, v.T, last.T)
		}
		last = v
	}
	return nil
}

// extendLocked appends pre-validated verts to old. Caller holds s.mu,
// guarantees verts[0].T > old's last vertex time, and commits the mutation
// (commitLocked).
func (s *Store) extendLocked(old *trajectory.Trajectory, verts []trajectory.Vertex) (nt *trajectory.Trajectory, changedFrom float64) {
	changedFrom = old.Verts[len(old.Verts)-1].T
	nv := make([]trajectory.Vertex, len(old.Verts), len(old.Verts)+len(verts))
	copy(nv, old.Verts)
	nv = append(nv, verts...)
	nt = &trajectory.Trajectory{OID: old.OID, Verts: nv}
	s.trajs[old.OID] = nt
	s.segLive += len(verts)
	return nt, changedFrom
}

// reviseLocked splices pre-validated verts onto old at verts[0].T. Caller
// holds s.mu and commits the mutation (commitLocked).
func (s *Store) reviseLocked(old *trajectory.Trajectory, verts []trajectory.Vertex) (nt *trajectory.Trajectory, changedFrom float64, err error) {
	keep := 0
	for keep < len(old.Verts) && old.Verts[keep].T < verts[0].T {
		keep++
	}
	if keep == 0 {
		return nil, 0, fmt.Errorf("%w: %d (revision at t=%g precedes the whole plan)", ErrStaleVertex, old.OID, verts[0].T)
	}
	changedFrom = old.Verts[keep-1].T
	nv := make([]trajectory.Vertex, keep, keep+len(verts))
	copy(nv, old.Verts[:keep])
	nv = append(nv, verts...)
	nt = &trajectory.Trajectory{OID: old.OID, Verts: nv}
	s.trajs[old.OID] = nt
	s.segLive += nt.NumSegments() - old.NumSegments()
	return nt, changedFrom, nil
}

// ApplyUpdate applies one ingest update — a batch of one: a plan revision
// (or pure extension) when the OID exists, an insert otherwise.
func (s *Store) ApplyUpdate(u Update) (Applied, error) {
	s.mu.Lock()
	a, st, err := s.applyLocked(u)
	s.mu.Unlock()
	if err != nil {
		return Applied{}, err
	}
	s.maintainIndexes(st)
	return a, nil
}

// ApplyUpdates applies the batch in order as one step, stopping at the
// first error and returning the outcomes applied so far alongside it (they
// stay applied, and indexed). The whole batch is classified and applied in
// one critical section — still one version per update, so nothing keyed on
// Version moves, but a reader never sees half a batch, concurrent same-OID
// batches serialize cleanly (no lost updates, and Prev is always the plan an
// update actually superseded) — and the index then takes one step across
// all of its versions.
func (s *Store) ApplyUpdates(us []Update) ([]Applied, error) {
	out := make([]Applied, 0, len(us))
	steps := make([]step, 0, len(us))
	var err error
	s.mu.Lock()
	for _, u := range us {
		a, st, e := s.applyLocked(u)
		if e != nil {
			err = e
			break
		}
		out, steps = append(out, a), append(steps, st)
	}
	s.mu.Unlock()
	s.maintainIndexes(steps...)
	return out, err
}

// applyLocked validates, classifies and applies one update. Caller holds
// s.mu and hands the returned step to maintainIndexes after releasing it.
func (s *Store) applyLocked(u Update) (Applied, step, error) {
	if u.Retire {
		if len(u.Verts) > 0 || u.Tags != nil {
			return Applied{}, step{}, fmt.Errorf("%w: oid %d", ErrRetireConflict, u.OID)
		}
		return s.retireLocked(u.OID)
	}
	var canon []string
	if u.Tags != nil {
		var err error
		canon, err = textidx.CanonTags(*u.Tags)
		if err != nil {
			return Applied{}, step{}, err
		}
	}
	old, exists := s.trajs[u.OID]
	if len(u.Verts) == 0 && u.Tags != nil {
		// A pure tag flip: the motion stands, the tree is still exact.
		if !exists {
			return Applied{}, step{}, fmt.Errorf("%w: %d", ErrNotFound, u.OID)
		}
		prev := s.tags[u.OID]
		s.setTagsLocked(u.OID, canon)
		a := Applied{OID: u.OID, ChangedFrom: math.Inf(1), Traj: old}
		if !slices.Equal(prev, canon) {
			a.TagsChanged, a.Tags, a.PrevTags = true, canon, prev
		}
		return a, s.commitLocked(nil, math.Inf(1)), nil
	}
	if err := checkVerts(u.OID, u.Verts); err != nil {
		return Applied{}, step{}, err
	}
	if !exists {
		if len(u.Verts) < 2 {
			return Applied{}, step{}, fmt.Errorf("%w: oid %d has %d", ErrShortInsert, u.OID, len(u.Verts))
		}
		tr, err := trajectory.New(u.OID, append([]trajectory.Vertex(nil), u.Verts...))
		if err != nil {
			return Applied{}, step{}, err
		}
		s.trajs[u.OID] = tr
		if u.Tags != nil {
			s.setTagsLocked(u.OID, canon)
		}
		s.segLive += tr.NumSegments()
		return Applied{
			OID: u.OID, Inserted: true, ChangedFrom: math.Inf(-1), Traj: tr,
			TagsChanged: len(canon) > 0, Tags: canon,
		}, s.commitLocked(tr, math.Inf(-1)), nil
	}
	prevTags := s.tags[u.OID]
	var (
		nt          *trajectory.Trajectory
		changedFrom float64
	)
	if u.Verts[0].T > old.Verts[len(old.Verts)-1].T {
		// Strictly beyond the plan end: a pure extension — the motion
		// changes from the old plan end (the clamp is replaced).
		nt, changedFrom = s.extendLocked(old, u.Verts)
	} else {
		var err error
		if nt, changedFrom, err = s.reviseLocked(old, u.Verts); err != nil {
			return Applied{}, step{}, err
		}
	}
	a := Applied{OID: u.OID, ChangedFrom: changedFrom, Prev: old, Traj: nt}
	if u.Tags != nil {
		// Same version bump as the geometry: one Applied, one cache
		// invalidation.
		s.setTagsLocked(u.OID, canon)
		if !slices.Equal(prevTags, canon) {
			a.TagsChanged, a.Tags, a.PrevTags = true, canon, prevTags
		}
	}
	return a, s.commitLocked(nt, changedFrom), nil
}

// retireLocked is the Update.Retire path: drop the object's trajectory
// and tags and advance the live index chain without it. The spatial
// tree keeps the retired entries (they are conservative false positives
// — every probe hit is refined against the live trajectory map, which no
// longer holds the OID), but they count as dead against the shrinking
// live segment count, so sustained retirement reaches the compaction cut
// like sustained revision does. Predicate matching reads the tag map,
// which has forgotten the OID by the time the version moves. Caller holds
// s.mu.
func (s *Store) retireLocked(oid int64) (Applied, step, error) {
	old, ok := s.trajs[oid]
	if !ok {
		return Applied{}, step{}, fmt.Errorf("%w: %d", ErrNotFound, oid)
	}
	prevTags := s.tags[oid]
	delete(s.trajs, oid)
	delete(s.tags, oid)
	s.segLive -= old.NumSegments()
	a := Applied{OID: oid, Retired: true, ChangedFrom: math.Inf(-1), Prev: old}
	if len(prevTags) > 0 {
		a.TagsChanged, a.PrevTags = true, prevTags
	}
	return a, s.commitLocked(nil, math.Inf(-1)), nil
}

// compactionSlack bounds how far a chained tree may outgrow the live
// segment population before the chain is cut: plan revisions and
// retirements leave superseded entries behind, each harmless to an
// answer, but each a neighbor a pre-pass KNN probe can spend on an object
// whose live plan is elsewhere — which loosens the envelope bound and
// grows the survivor set — and a box the sweep walks. Past live +
// live/compactionSlack entries (and a small floor so tiny stores never
// churn) the chain stops, the cache goes stale, and the next BuildIndex
// performs a compacting rebuild. On the adhoc_cold benchmark fleet a
// quarter cuts the chain every ~20 revision batches and keeps a fifth
// fewer pre-pass survivors than twice the live count did (EXPERIMENTS.md,
// "Compaction at a quarter").
const (
	compactionSlack = 4
	compactionFloor = 1 << 10
)

// step is what one committed live mutation asks of the index: the entries
// for tr's motion from changedFrom on — the Applied.ChangedFrom of the
// mutation — at the version it produced. A nil tr inserts nothing and only
// advances the cached version: a retirement (changedFrom -Inf; the retired
// entries linger as false positives every probe refines away) or a pure tag
// flip (changedFrom +Inf; the tree is still exact). live is the store's
// live segment count as of that version, which the compaction rule reads.
type step struct {
	tr          *trajectory.Trajectory
	changedFrom float64
	version     uint64
	live        int
}

// commitLocked ends one live mutation: it bumps the version and records the
// index step while the counts it needs are still this version's. Caller
// holds s.mu.
func (s *Store) commitLocked(tr *trajectory.Trajectory, changedFrom float64) step {
	s.version++
	return step{tr: tr, changedFrom: changedFrom, version: s.version, live: s.segLive}
}

// cuts reports whether the compaction rule stops a chain at this step: the
// tree (treeLen entries before the step's own, those of the batch's earlier
// steps included) has accumulated superseded entries beyond a
// compactionSlack-th of the live segment count. A tag flip moved neither
// count and never cuts.
func (st step) cuts(treeLen int) bool {
	return !math.IsInf(st.changedFrom, 1) && treeLen > compactionFloor && treeLen > st.live+st.live/compactionSlack
}

// maintainIndexes chains the cached segment R-tree forward across steps —
// the consecutive versions one critical section of s.mu produced, a whole
// batch or a single mutation — with one Inserted call, so the batch copies
// each node on its insertion paths once. The caller has released s.mu: idxMu
// comes before mu in the lock order. The chain rule: the step is taken only
// when the cache is exactly one version behind the batch's first, so
// interleaved non-append mutations leave the cache stale and the next
// BuildIndex rebuilds — never a wrong tree, at worst a redundant rebuild.
// The compaction rule is evaluated update by update, as if each had been
// chained on its own; a chain it cuts anywhere in the batch is dropped
// whole, which is what keeps index size (and probe cost) proportional to the
// live fleet under a sustained revision workload. SegIncremental counts
// chained mutations, not calls.
func (s *Store) maintainIndexes(steps ...step) {
	if len(steps) == 0 {
		return
	}
	first := steps[0].version
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.idx != nil && s.idxVersion == first-1 {
		var es []sindex.Entry
		k := 0
		for ; k < len(steps) && !steps[k].cuts(s.idx.Len()+len(es)); k++ {
			if st := steps[k]; st.tr != nil {
				es = appendSegEntries(es, st.tr, st.changedFrom, s.spec.R)
			}
		}
		s.stats.SegIncremental += uint64(k)
		if k > 0 {
			s.idxVersion = steps[k-1].version
		}
		if k < len(steps) {
			s.idx = nil // cut the chain: next BuildIndex compacts
		} else {
			s.idx = s.idx.Inserted(es...)
		}
	}
}

// IndexStats counts index maintenance work — how often the cached tree was
// rebuilt from scratch versus chained forward incrementally.
type IndexStats struct {
	SegBuilds      uint64 `json:"seg_builds"`
	SegIncremental uint64 `json:"seg_incremental"`
}

// IndexStats reports the maintenance counters.
func (s *Store) IndexStats() IndexStats {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	return s.stats
}
