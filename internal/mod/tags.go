package mod

import (
	"fmt"
	"math"

	"repro/internal/textidx"
)

// This file is the textual-attribute surface of the store: canonical
// keyword/attribute tag sets per OID (the textual half of the
// spatio-textual queries), mutated copy-on-write alongside the
// trajectories. Tag sets ride the same version counter as geometry, so
// every (version-keyed) cache in the query stack sees tag flips exactly
// like plan revisions. Tags are data, not an index: a filtered query
// matches them against one consistent snapshot (TaggedView) and prunes
// on the same segment R-tree as an unfiltered one, so a tag flip costs
// the write path a map store and a version step (maintainIndexes).

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
	st := s.commitLocked(nil, math.Inf(1))
	s.mu.Unlock()
	s.maintainIndexes(st)
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

// MatchingOIDs returns the sorted OIDs whose tag sets satisfy where,
// which must be normalized (textidx.Predicate.Normalize): its clauses are
// matched as they are. A nil predicate matches everything (the plain OIDs
// view). This is the iteration-domain view the sharded all-pairs/reverse
// kinds union across shards under a predicate.
func (s *Store) MatchingOIDs(where *textidx.Predicate) []int64 {
	if where == nil {
		return s.OIDs()
	}
	v := s.TaggedView()
	out := []int64{}
	for i, oid := range v.OIDs {
		if where.Matches(v.Tags[i]) {
			out = append(out, oid)
		}
	}
	return out
}

// TextIndex does nothing: the hybrid keyword index it used to build is
// gone. The one remaining caller is benchmark/topology.go (at set-up and
// under its textidx.text_index span), which a PR touching other code may
// not edit; the next benchmark-only PR deletes those two calls, the span,
// and then this method.
func (s *Store) TextIndex() {}
