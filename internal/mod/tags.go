package mod

import (
	"fmt"
	"slices"

	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// This file is the textual-attribute surface of the store: canonical
// keyword/attribute tag sets per OID (the textual half of the
// spatio-textual queries), mutated copy-on-write alongside the
// trajectories, plus the lazily maintained hybrid text index hung off
// the segment R-tree's cells. Tag sets ride the same version counter as
// geometry, so every (version-keyed) cache in the query stack sees tag
// flips exactly like plan revisions.

// tidxOverflowFloor and tidxOverflowSlack bound how stale the chained
// text index's cell view may grow (OIDs whose geometry or tags postdate
// the cell build are swept unconditionally on every corridor probe)
// before the chain is cut and the next TextIndex call rebuilds — the
// same compaction policy the segment R-tree chain uses. The cut fires
// when slack × overflow exceeds the universe, i.e. when more than 1/slack
// of the index has fallen out of the cell view. tidxChurnSlack bounds the
// copy-on-write chain length the same way: a flip-heavy workload that
// keeps re-deriving postings for the same few OIDs never grows the
// overflow list (the OID is already listed), but each step re-clones the
// touched posting rows — past churn > slack × universe the chain has
// done more derivation work than a compacting rebuild would cost, so it
// is cut.
const (
	tidxOverflowFloor = 64
	tidxOverflowSlack = 2
	tidxChurnSlack    = 2
)

// SetTags replaces the tag set of an existing object (nil or empty
// clears it). Tags are canonicalized (textidx.CanonTags); the store only
// ever holds canonical sets. Bumps the store version: tag flips
// invalidate version-keyed caches exactly like geometry mutations.
func (s *Store) SetTags(oid int64, tags []string) error {
	canon, err := textidx.CanonTags(tags)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if _, ok := s.trajs[oid]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNotFound, oid)
	}
	s.setTagsLocked(oid, canon)
	s.version++
	version := s.version
	s.mu.Unlock()
	s.maintainTextTags(oid, canon, version)
	return nil
}

// setTagsLocked installs a canonical tag set. Caller holds s.mu.
func (s *Store) setTagsLocked(oid int64, canon []string) {
	if s.tags == nil {
		s.tags = make(map[int64][]string)
	}
	if len(canon) == 0 {
		delete(s.tags, oid)
	} else {
		s.tags[oid] = canon
	}
}

// Tags returns the canonical tag set of an OID (nil when untagged or
// unknown). The returned slice aliases store state; do not modify.
func (s *Store) Tags(oid int64) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tags[oid]
}

// TagsSnapshot returns a copy of the tag map (tag slices are shared —
// they are immutable once installed).
func (s *Store) TagsSnapshot() map[int64][]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[int64][]string, len(s.tags))
	for oid, ts := range s.tags {
		out[oid] = ts
	}
	return out
}

// tagView is the tag-map copy of one store version (see Store.tagView).
type tagView struct {
	version uint64
	tags    map[int64][]string
}

// AllWithTags returns the trajectory snapshot, the tag map, and the
// version they were taken at, under one lock acquisition — the
// predicate-filtered query path needs the two views consistent, since
// which objects exist in the sub-MOD is decided by matching tags against
// exactly this trajectory set. Like the View's slices, the map is copied
// once per store version and shared between callers: read-only.
func (s *Store) AllWithTags() ([]*trajectory.Trajectory, map[int64][]string, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := s.viewLocked()
	tv := s.tagView.Load()
	if tv == nil || tv.version != s.version {
		tv = &tagView{version: s.version, tags: make(map[int64][]string, len(s.tags))}
		for oid, ts := range s.tags {
			tv.tags[oid] = ts
		}
		s.tagView.Store(tv)
	}
	return v.Trajs, tv.tags, v.Version
}

// MatchingOIDs returns the sorted OIDs whose tag sets satisfy where; a
// nil predicate matches everything (the plain OIDs view). This is the
// iteration-domain view the sharded all-pairs/reverse kinds union across
// shards under a predicate.
func (s *Store) MatchingOIDs(where *textidx.Predicate) []int64 {
	if where == nil {
		return s.OIDs()
	}
	where = where.Canon()
	s.mu.RLock()
	out := make([]int64, 0, len(s.trajs))
	for oid := range s.trajs {
		if where.Matches(s.tags[oid]) {
			out = append(out, oid)
		}
	}
	s.mu.RUnlock()
	slices.Sort(out)
	return out
}

// TextIndex returns the hybrid keyword index over the store's current
// contents and the version it reflects. The index is cached and
// maintained incrementally by live mutations (copy-on-write chaining,
// like the segment R-tree); a chain cut or cold cache rebuilds from the
// segment R-tree's leaf cells. Callers that snapshotted the store at
// version v use the index only when the returned version equals v,
// falling back to plain spatial pruning otherwise — the index is an
// accelerator, never the source of truth for matching.
func (s *Store) TextIndex() (*textidx.Index, uint64) {
	idx := s.BuildIndex(0)
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	s.mu.RLock()
	version := s.version
	s.mu.RUnlock()
	if s.tidx != nil && s.tidxVersion == version {
		return s.tidx, version
	}
	s.mu.RLock()
	// A mutation between the R-tree build and here means the leaves may
	// not cover the newest geometry; report failure and let the caller
	// fall back to plain spatial pruning.
	raced := s.version != version
	universe := make([]int64, 0, len(s.trajs))
	for oid := range s.trajs {
		universe = append(universe, oid)
	}
	tags := make(map[int64][]string, len(s.tags))
	for oid, ts := range s.tags {
		tags[oid] = ts
	}
	s.mu.RUnlock()
	if raced {
		return nil, 0
	}
	s.tidx = textidx.Build(universe, tags, idx.Leaves())
	s.tidxVersion = version
	s.stats.TextBuilds++
	return s.tidx, version
}

// TextIndexVersion reports the version the cached text index was last
// built or chained at (0 when cold) — staleness observability for tests.
func (s *Store) TextIndexVersion() uint64 {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	return s.tidxVersion
}

// maintainTextTags chains the cached text index across a pure tag flip
// at `version` and keeps the (geometry-untouched) spatial chains alive —
// a tag flip bumps the store version, but the segment R-tree and the
// predictive tree it left behind are still exact, so their cached
// versions advance with no tree work.
func (s *Store) maintainTextTags(oid int64, canon []string, version uint64) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.idx != nil && s.idxVersion == version-1 {
		s.idxVersion = version
		s.stats.SegIncremental++
	}
	if s.predOn && s.pred != nil && s.predVersion == version-1 {
		s.predVersion = version
	}
	s.chainTextLocked(version, func(x *textidx.Index) *textidx.Index {
		return x.WithTags(oid, canon)
	})
}

// chainTextLocked advances the cached text index to `version` with step
// when it is exactly one version behind, cutting the chain instead when
// the overflow list has outgrown the compaction bound. Caller holds
// idxMu.
func (s *Store) chainTextLocked(version uint64, step func(*textidx.Index) *textidx.Index) {
	if s.tidx == nil || s.tidxVersion != version-1 {
		s.tidx = nil // stale: next TextIndex rebuilds
		return
	}
	if ov := s.tidx.Overflow(); ov > tidxOverflowFloor && tidxOverflowSlack*ov > s.tidx.Len() {
		s.tidx = nil
		return
	}
	if ch := s.tidx.Churn(); ch > tidxOverflowFloor && ch > tidxChurnSlack*s.tidx.Len() {
		s.tidx = nil
		return
	}
	s.tidx = step(s.tidx)
	s.tidxVersion = version
	s.stats.TextIncremental++
}
