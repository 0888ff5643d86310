package mod

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/sindex"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// This file is the live-ingestion surface of the store: location updates
// append vertices to existing motion plans (or insert brand-new objects),
// and the spatial indexes are maintained *incrementally* — new segments
// are inserted into the cached segment R-tree and the predictive TPR tree
// via the persistent Inserted path instead of invalidating the whole
// (version, fanout) cache, so a standing query workload never pays a full
// O(n log n) rebuild just because the fleet reported positions.

// Live-ingestion errors.
var (
	// ErrStaleVertex reports an appended vertex whose timestamp does not
	// strictly exceed the trajectory's current last vertex time.
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
	// are dropped, the live indexes forget it, and subsequent queries
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

// AppendVertex appends one vertex to an existing trajectory. The vertex
// must be finite and strictly after the current last vertex. The stored
// trajectory value is replaced, never mutated — readers holding the old
// pointer (snapshots, sibling shards) keep a consistent plan.
func (s *Store) AppendVertex(oid int64, v trajectory.Vertex) error {
	_, err := s.ExtendTrajectory(oid, []trajectory.Vertex{v})
	return err
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

// extendLocked appends pre-validated verts to old. Caller holds s.mu and
// guarantees verts[0].T > old's last vertex time.
func (s *Store) extendLocked(old *trajectory.Trajectory, verts []trajectory.Vertex) (nt *trajectory.Trajectory, changedFrom float64) {
	changedFrom = old.Verts[len(old.Verts)-1].T
	nv := make([]trajectory.Vertex, len(old.Verts), len(old.Verts)+len(verts))
	copy(nv, old.Verts)
	nv = append(nv, verts...)
	nt = &trajectory.Trajectory{OID: old.OID, Verts: nv}
	s.trajs[old.OID] = nt
	s.version++
	s.segLive += len(verts)
	return nt, changedFrom
}

// reviseLocked splices pre-validated verts onto old at verts[0].T. Caller
// holds s.mu.
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
	s.version++
	s.segLive += nt.NumSegments() - old.NumSegments()
	return nt, changedFrom, nil
}

// ExtendTrajectory appends verts (in order) to an existing trajectory and
// returns the time from which the object's motion changed: the previous
// last vertex time — before it, interpolated positions are untouched; at
// and after it, the old clamp is replaced by the new plan.
func (s *Store) ExtendTrajectory(oid int64, verts []trajectory.Vertex) (changedFrom float64, err error) {
	if err := checkVerts(oid, verts); err != nil {
		return 0, err
	}
	s.mu.Lock()
	old, ok := s.trajs[oid]
	if !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %d", ErrNotFound, oid)
	}
	if last := old.Verts[len(old.Verts)-1]; verts[0].T <= last.T {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %d (t=%g after t=%g)", ErrStaleVertex, oid, verts[0].T, last.T)
	}
	nt, changedFrom := s.extendLocked(old, verts)
	version := s.version
	s.mu.Unlock()

	s.maintainIndexes(nt, changedFrom, version)
	return changedFrom, nil
}

// RevisePlan splices verts onto an existing plan: every stored vertex at
// or after verts[0].T is dropped, the new vertices are appended, and the
// object's motion changes from the last *kept* vertex onward (the splice
// segment from that vertex to verts[0] generally differs from the old
// path — changedFrom is its start, which is what the returned value
// reports). verts[0].T must leave at least one vertex standing. The
// superseded plan is returned for provenance (it is immutable; readers
// holding it are unaffected).
func (s *Store) RevisePlan(oid int64, verts []trajectory.Vertex) (changedFrom float64, prev *trajectory.Trajectory, err error) {
	if err := checkVerts(oid, verts); err != nil {
		return 0, nil, err
	}
	s.mu.Lock()
	old, ok := s.trajs[oid]
	if !ok {
		s.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %d", ErrNotFound, oid)
	}
	nt, changedFrom, err := s.reviseLocked(old, verts)
	if err != nil {
		s.mu.Unlock()
		return 0, nil, err
	}
	version := s.version
	s.mu.Unlock()

	s.maintainIndexes(nt, changedFrom, version)
	return changedFrom, old, nil
}

// ApplyUpdate applies one ingest update: a plan revision (or pure
// extension) when the OID exists, an insert otherwise. Classification
// and application happen under one critical section, so concurrent
// same-OID updates serialize cleanly (each sees the other's committed
// plan — no lost updates, no spurious stale/duplicate errors, and Prev
// is always the plan this update actually superseded).
func (s *Store) ApplyUpdate(u Update) (Applied, error) {
	if u.Retire {
		if len(u.Verts) > 0 || u.Tags != nil {
			return Applied{}, fmt.Errorf("%w: oid %d", ErrRetireConflict, u.OID)
		}
		return s.applyRetire(u.OID)
	}
	var canon []string
	if u.Tags != nil {
		var err error
		canon, err = textidx.CanonTags(*u.Tags)
		if err != nil {
			return Applied{}, err
		}
	}
	if len(u.Verts) == 0 && u.Tags != nil {
		return s.applyTagFlip(u.OID, canon)
	}
	if err := checkVerts(u.OID, u.Verts); err != nil {
		return Applied{}, err
	}
	s.mu.Lock()
	old, exists := s.trajs[u.OID]
	if !exists {
		if len(u.Verts) < 2 {
			s.mu.Unlock()
			return Applied{}, fmt.Errorf("%w: oid %d has %d", ErrShortInsert, u.OID, len(u.Verts))
		}
		tr, err := trajectory.New(u.OID, append([]trajectory.Vertex(nil), u.Verts...))
		if err != nil {
			s.mu.Unlock()
			return Applied{}, err
		}
		s.trajs[u.OID] = tr
		if u.Tags != nil {
			s.setTagsLocked(u.OID, canon)
		}
		s.version++
		s.segLive += tr.NumSegments()
		version := s.version
		s.mu.Unlock()
		s.maintainIndexes(tr, math.Inf(-1), version)
		return Applied{
			OID: u.OID, Inserted: true, ChangedFrom: math.Inf(-1), Traj: tr,
			TagsChanged: len(canon) > 0, Tags: canon,
		}, nil
	}
	prevTags := s.tags[u.OID]
	var (
		nt          *trajectory.Trajectory
		changedFrom float64
		err         error
	)
	if u.Verts[0].T > old.Verts[len(old.Verts)-1].T {
		// Strictly beyond the plan end: a pure extension — the motion
		// changes from the old plan end (the clamp is replaced).
		nt, changedFrom = s.extendLocked(old, u.Verts)
	} else {
		nt, changedFrom, err = s.reviseLocked(old, u.Verts)
		if err != nil {
			s.mu.Unlock()
			return Applied{}, err
		}
	}
	if u.Tags != nil {
		// Same critical section, same version bump as the geometry: one
		// Applied, one cache invalidation.
		s.setTagsLocked(u.OID, canon)
	}
	version := s.version
	s.mu.Unlock()
	s.maintainIndexes(nt, changedFrom, version)
	a := Applied{OID: u.OID, ChangedFrom: changedFrom, Prev: old, Traj: nt}
	if u.Tags != nil && !slices.Equal(prevTags, canon) {
		a.TagsChanged, a.Tags, a.PrevTags = true, canon, prevTags
	}
	return a, nil
}

// applyTagFlip is the vertex-less ApplyUpdate path: replace an existing
// object's tag set without touching its motion.
func (s *Store) applyTagFlip(oid int64, canon []string) (Applied, error) {
	s.mu.Lock()
	tr, ok := s.trajs[oid]
	if !ok {
		s.mu.Unlock()
		return Applied{}, fmt.Errorf("%w: %d", ErrNotFound, oid)
	}
	prev := s.tags[oid]
	s.setTagsLocked(oid, canon)
	s.version++
	version := s.version
	s.mu.Unlock()
	s.maintainIndexes(nil, math.Inf(1), version)
	a := Applied{OID: oid, ChangedFrom: math.Inf(1), Traj: tr}
	if !slices.Equal(prev, canon) {
		a.TagsChanged, a.Tags, a.PrevTags = true, canon, prev
	}
	return a, nil
}

// applyRetire is the Update.Retire path: drop the object's trajectory
// and tags and advance the live index chains without it. The spatial
// trees keep the retired entries (they are conservative false positives
// — every probe hit is refined against the live trajectory map, which no
// longer holds the OID), but the shrinking live segment count pulls the
// compactionSlack cut closer, so sustained retirement triggers
// compacting rebuilds. Predicate matching reads the tag map, which has
// forgotten the OID by the time the version moves.
func (s *Store) applyRetire(oid int64) (Applied, error) {
	s.mu.Lock()
	old, ok := s.trajs[oid]
	if !ok {
		s.mu.Unlock()
		return Applied{}, fmt.Errorf("%w: %d", ErrNotFound, oid)
	}
	prevTags := s.tags[oid]
	delete(s.trajs, oid)
	delete(s.tags, oid)
	s.segLive -= old.NumSegments()
	s.version++
	version := s.version
	s.mu.Unlock()
	s.maintainIndexes(nil, math.Inf(-1), version)
	a := Applied{OID: oid, Retired: true, ChangedFrom: math.Inf(-1), Prev: old}
	if len(prevTags) > 0 {
		a.TagsChanged, a.PrevTags = true, prevTags
	}
	return a, nil
}

// RetireObject retires oid outside a batch — the direct-call analogue of
// ApplyUpdate with Retire set.
func (s *Store) RetireObject(oid int64) (Applied, error) { return s.applyRetire(oid) }

// ExpiredOIDs returns the sorted OIDs whose plans ended more than ttl
// before now — the candidates a TTL-driven retirement policy turns into
// explicit Retire updates. Retirement stays an ordinary wire-visible
// update (WAL-journaled, replayed on recovery), so TTL expiry is
// deterministic for a given update stream rather than a store-side
// side effect.
func (s *Store) ExpiredOIDs(now, ttl float64) []int64 {
	if ttl < 0 || math.IsNaN(ttl) {
		return nil
	}
	s.mu.RLock()
	var out []int64
	for oid, tr := range s.trajs {
		if _, te := tr.TimeSpan(); te+ttl < now {
			out = append(out, oid)
		}
	}
	s.mu.RUnlock()
	slices.Sort(out)
	return out
}

// ApplyUpdates applies the batch in order, stopping at the first error and
// returning the outcomes applied so far alongside it.
func (s *Store) ApplyUpdates(us []Update) ([]Applied, error) {
	out := make([]Applied, 0, len(us))
	for _, u := range us {
		a, err := s.ApplyUpdate(u)
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
	return out, nil
}

// InsertLive inserts a trajectory like Insert but maintains the cached
// indexes incrementally instead of leaving them to a lazy rebuild — the
// ingest path for objects joining a live fleet.
func (s *Store) InsertLive(tr *trajectory.Trajectory) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	if _, ok := s.trajs[tr.OID]; ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrDuplicateOID, tr.OID)
	}
	s.trajs[tr.OID] = tr
	s.version++
	s.segLive += tr.NumSegments()
	version := s.version
	s.mu.Unlock()

	s.maintainIndexes(tr, math.Inf(-1), version)
	return nil
}

// compactionSlack bounds how far a chained tree may outgrow the live
// segment population before the chain is cut: plan revisions leave
// superseded entries behind (harmless false positives individually), and
// without a cut a long-running revision workload would grow the tree —
// and every probe over it — without bound. Past 2× (and a small floor so
// tiny stores never churn) the chain stops, the cache goes stale, and
// the next BuildIndex performs a compacting rebuild.
const (
	compactionSlack = 2
	compactionFloor = 1 << 10
)

// maintainIndexes chains the cached segment R-tree (and the predictive TPR
// tree, when enabled) forward to `version` by inserting the entries for
// tr's motion from changedFrom on — the Applied.ChangedFrom of the mutation.
// A nil tr inserts nothing and only advances the cached versions: a
// retirement (changedFrom -Inf; the retired entries linger as false
// positives every probe refines away) or a pure tag flip (changedFrom +Inf;
// the trees are still exact). The chain rule: an incremental step is
// taken only when the cache is exactly one version behind, so interleaved
// non-append mutations leave the cache stale and the next BuildIndex
// rebuilds — never a wrong tree, at worst a redundant rebuild. A chain
// whose tree has accumulated superseded entries beyond compactionSlack ×
// the live segment count is cut the same way, which is what keeps index
// size (and probe cost) proportional to the live fleet under a sustained
// revision workload; a tag flip moved neither count and never cuts.
func (s *Store) maintainIndexes(tr *trajectory.Trajectory, changedFrom float64, version uint64) {
	s.mu.RLock()
	live := s.segLive
	s.mu.RUnlock()
	moved := !math.IsInf(changedFrom, 1)
	bloated := func(treeLen int) bool {
		return moved && treeLen > compactionFloor && treeLen > compactionSlack*live
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.idx != nil && s.idxVersion == version-1 {
		if bloated(s.idx.Len()) {
			s.idx = nil // cut the chain: next BuildIndex compacts
		} else {
			var es []sindex.Entry
			for i := 0; tr != nil && i < tr.NumSegments(); i++ {
				seg, t0, t1 := tr.Segment(i)
				if t1 <= changedFrom {
					continue
				}
				box := geom.AABBOf(seg.A, seg.B).Expand(s.spec.R)
				es = append(es, sindex.Entry{ID: tr.OID, Box: box, T0: t0, T1: t1})
			}
			s.idx = s.idx.Inserted(es...)
			s.idxVersion = version
			s.stats.SegIncremental++
		}
	}
	if s.predOn && s.pred != nil && s.predVersion == version-1 {
		if bloated(s.pred.Len()) {
			s.pred = nil // cut the chain: the next Predictive call compacts
		} else {
			if tr != nil {
				s.pred = s.pred.Inserted(predictiveEntries(tr, s.predRef, s.predRef+s.predHorizon, changedFrom)...)
			}
			s.predVersion = version
			s.stats.TPRIncremental++
		}
	}
}

// IndexStats counts index maintenance work — how often each cached tree
// was rebuilt from scratch versus chained forward incrementally. The
// predictive no-rebuild gate asserts on it.
type IndexStats struct {
	SegBuilds      uint64 `json:"seg_builds"`
	SegIncremental uint64 `json:"seg_incremental"`
	TPRBuilds      uint64 `json:"tpr_builds"`
	TPRIncremental uint64 `json:"tpr_incremental"`
	TPRAdvances    uint64 `json:"tpr_advances,omitempty"`
}

// IndexStats reports the maintenance counters.
func (s *Store) IndexStats() IndexStats {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	return s.stats
}

// EnablePredictive builds and pins a TPR-tree over the store's motion
// plans covering [refT, refT+horizon]: per object, one moving entry per
// plan segment intersecting the window plus stationary entries for the
// clamped head and tail, so every instant in the window is covered by an
// entry with the object's exact expected motion. Queries whose window
// fits the coverage take this index instead of the segment R-tree (the
// prune package decides), and live appends extend it incrementally —
// serving predictive "now + horizon" windows never pays a rebuild.
// Non-append mutations (Update/Delete) leave it stale; the next Predictive
// call rebuilds lazily, exactly like BuildIndex.
func (s *Store) EnablePredictive(refT, horizon float64) error {
	if horizon <= 0 || math.IsNaN(refT) || math.IsNaN(horizon) || math.IsInf(refT, 0) || math.IsInf(horizon, 0) {
		return fmt.Errorf("mod: bad predictive window [%g, %g+%g]", refT, refT, horizon)
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	s.predOn, s.predAuto = true, false
	s.predRef, s.predHorizon = refT, horizon
	s.pred, s.predVersion = nil, 0
	s.rebuildPredictiveLocked()
	return nil
}

// EnablePredictiveAuto is EnablePredictive with the pin in auto-advance
// mode: when a query window has moved past the pinned coverage (the
// usual fate of a "now + horizon" serving loop as the clock runs),
// PredictiveFor re-pins the window forward at the query's start and
// rebuilds, instead of silently degrading every future predictive query
// to the segment R-tree. Advances are monotone (forward only) and
// counted in IndexStats.TPRAdvances.
func (s *Store) EnablePredictiveAuto(refT, horizon float64) error {
	if err := s.EnablePredictive(refT, horizon); err != nil {
		return err
	}
	s.idxMu.Lock()
	s.predAuto = true
	s.idxMu.Unlock()
	return nil
}

// DisablePredictive drops the predictive index.
func (s *Store) DisablePredictive() {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	s.predOn, s.predAuto = false, false
	s.pred = nil
}

// Predictive returns the live predictive index and its coverage. ok is
// false when EnablePredictive has not been called. The returned tree is
// immutable; it reflects the store version at the time of the call (a
// concurrent mutation may supersede it, which callers detect the same way
// they do for BuildIndex — by re-checking Version).
func (s *Store) Predictive() (t *sindex.TPRTree, refT, horizon float64, ok bool) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if !s.predOn {
		return nil, 0, 0, false
	}
	s.mu.RLock()
	version := s.version
	s.mu.RUnlock()
	if s.pred == nil || s.predVersion != version {
		s.rebuildPredictiveLocked()
	}
	return s.pred, s.predRef, s.predHorizon, true
}

// PredictiveFor returns the predictive index positioned to serve window
// [tb, te]. It is Predictive plus the auto-advance step: in auto mode,
// when the window has escaped the pinned coverage forward (te past
// refT+horizon) yet still fits the horizon, the pin advances to refT=tb
// and the tree rebuilds — one full build buys coverage for the whole next
// horizon of queries. Advances never move backward, so a stray historical
// query cannot thrash the pin; it just takes the segment R-tree path.
// The advance only repositions a prune-level index, so answers are
// unchanged — shards advancing independently stay byte-identical.
func (s *Store) PredictiveFor(tb, te float64) (t *sindex.TPRTree, refT, horizon float64, ok bool) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if !s.predOn {
		return nil, 0, 0, false
	}
	if s.predAuto && tb > s.predRef && te > s.predRef+s.predHorizon &&
		te-tb <= s.predHorizon && !math.IsNaN(tb) && !math.IsInf(tb, 0) {
		s.predRef = tb
		s.pred = nil
		s.stats.TPRAdvances++
	}
	s.mu.RLock()
	version := s.version
	s.mu.RUnlock()
	if s.pred == nil || s.predVersion != version {
		s.rebuildPredictiveLocked()
	}
	return s.pred, s.predRef, s.predHorizon, true
}

// rebuildPredictiveLocked rebuilds the predictive tree from the current
// contents. Caller holds idxMu.
func (s *Store) rebuildPredictiveLocked() {
	s.mu.RLock()
	version := s.version
	var es []sindex.MovingEntry
	for _, tr := range s.trajs {
		es = append(es, predictiveEntries(tr, s.predRef, s.predRef+s.predHorizon, math.Inf(-1))...)
	}
	s.mu.RUnlock()
	s.pred = sindex.NewTPRTree(es, s.predRef, s.idxFanoutOrDefault())
	s.predVersion = version
	s.stats.TPRBuilds++
}

func (s *Store) idxFanoutOrDefault() int {
	if s.idxFanout > 0 {
		return s.idxFanout
	}
	return sindex.DefaultFanout
}

// predictiveEntries returns the moving entries describing tr's expected
// motion over [refT, end], restricted to motion at or after changedFrom
// (-Inf for the whole plan — the append path passes the old plan end so
// only the new segments and the new clamp tail are emitted; the
// superseded tail entry stays in the tree as a harmless false positive,
// every index hit being refined against the live trajectory anyway).
func predictiveEntries(tr *trajectory.Trajectory, refT, end, changedFrom float64) []sindex.MovingEntry {
	var es []sindex.MovingEntry
	tb, te := tr.TimeSpan()
	if tb > refT && math.IsInf(changedFrom, -1) {
		// Clamped head: stationary at the first vertex until the plan starts.
		es = append(es, sindex.MovingEntry{
			ID: tr.OID, P: tr.Verts[0].Point(), T0: refT, T1: math.Min(tb, end),
		})
	}
	for i := 0; i < tr.NumSegments(); i++ {
		seg, t0, t1 := tr.Segment(i)
		if t1 < refT || t0 > end || t1 <= changedFrom {
			continue
		}
		dt := t1 - t0
		es = append(es, sindex.MovingEntry{
			ID: tr.OID, P: seg.A,
			V:  geom.Vec{X: (seg.B.X - seg.A.X) / dt, Y: (seg.B.Y - seg.A.Y) / dt},
			T0: t0, T1: t1,
		})
	}
	if te < end {
		// Clamped tail: stationary at the last vertex through the horizon.
		es = append(es, sindex.MovingEntry{
			ID: tr.OID, P: tr.Verts[len(tr.Verts)-1].Point(), T0: te, T1: end,
		})
	}
	return es
}
