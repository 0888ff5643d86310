// Package textidx adds the textual half of the spatio-textual query
// stack: canonical keyword/attribute tags on trajectories, ALL/ANY/NOT
// predicates over them, and a hybrid index that hangs inverted OID lists
// off the segment R-tree's leaf cells (after the spatial-keyword hybrid
// indexing of Cong et al., "Efficient Spatial Keyword Search in
// Trajectory Databases").
//
// A predicate query runs over the sub-MOD of matching objects: filtered
// objects do not block, do not shape the envelope, and cannot answer —
// the result is byte-identical to rebuilding a store from only the
// matching trajectories and running the plain engine. The hybrid index
// only accelerates that semantics: per-cell tag unions let the candidate
// sweep skip whole R-tree cells that contain no matching object before
// any distance function is built, and the per-tag postings answer "which
// OIDs match" without a store scan.
//
// The Index is immutable. Live mutation goes through the copy-on-write
// WithTags/WithObject/WithGeometry derivations, which share postings and
// cells with the original and track geometry the cells no longer cover
// in a conservative overflow list; the store rebuilds lazily when the
// overflow grows past its threshold.
package textidx

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/geom"
	"repro/internal/sindex"
)

// MaxTagLen bounds a single canonical tag's length.
const MaxTagLen = 64

// MaxTags bounds the tag set of one object and each predicate clause:
// tags are attributes ("available", "wheelchair"), not documents.
const MaxTags = 32

// ErrBadTag rejects a tag that cannot be canonicalized.
var ErrBadTag = errors.New("textidx: bad tag")

// ErrBadPredicate rejects a malformed predicate.
var ErrBadPredicate = errors.New("textidx: bad predicate")

// CanonTag canonicalizes one tag: ASCII-lowercased, 1..MaxTagLen bytes,
// drawn from [a-z0-9_.:@/+-]. The charset keeps tags safe inside every
// surface they ride through — UQL string literals, the wire predicate
// key, and the JSON forms — without any escaping.
func CanonTag(tag string) (string, error) {
	t := strings.ToLower(strings.TrimSpace(tag))
	if len(t) == 0 || len(t) > MaxTagLen {
		return "", fmt.Errorf("%w: %q (want 1..%d chars)", ErrBadTag, tag, MaxTagLen)
	}
	for _, c := range []byte(t) {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '_' || c == '.' || c == ':' || c == '@' || c == '/' || c == '+' || c == '-':
		default:
			return "", fmt.Errorf("%w: %q (char %q not in [a-z0-9_.:@/+-])", ErrBadTag, tag, string(c))
		}
	}
	return t, nil
}

// CanonTags canonicalizes a tag set: each tag through CanonTag, sorted,
// deduplicated, at most MaxTags. A nil or empty input returns nil — the
// canonical form of "untagged".
func CanonTags(tags []string) ([]string, error) {
	if len(tags) == 0 {
		return nil, nil
	}
	out := make([]string, 0, len(tags))
	for _, tag := range tags {
		t, err := CanonTag(tag)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	slices.Sort(out)
	out = slices.Compact(out)
	if len(out) > MaxTags {
		return nil, fmt.Errorf("%w: %d tags (max %d)", ErrBadTag, len(out), MaxTags)
	}
	return out, nil
}

// Predicate is an attribute filter over tag sets: an object matches when
// it carries every All tag, at least one Any tag (when Any is
// non-empty), and no Not tag. A nil *Predicate matches everything. An
// untagged object matches a predicate with only Not clauses.
type Predicate struct {
	All []string `json:"all,omitempty"`
	Any []string `json:"any,omitempty"`
	Not []string `json:"not,omitempty"`
}

// Validate checks the predicate: at least one clause non-empty, every
// tag canonicalizable, clause sizes within MaxTags. A nil predicate is
// valid (no filter).
func (p *Predicate) Validate() error {
	if p == nil {
		return nil
	}
	if len(p.All) == 0 && len(p.Any) == 0 && len(p.Not) == 0 {
		return fmt.Errorf("%w: empty predicate (use no predicate instead)", ErrBadPredicate)
	}
	for _, clause := range [][]string{p.All, p.Any, p.Not} {
		if _, err := CanonTags(clause); err != nil {
			return fmt.Errorf("%w: %v", ErrBadPredicate, err)
		}
		if len(clause) > MaxTags {
			return fmt.Errorf("%w: clause of %d tags (max %d)", ErrBadPredicate, len(clause), MaxTags)
		}
	}
	return nil
}

// Canon returns the canonical form of a valid predicate: every clause
// canonicalized (lowercased, sorted, deduplicated). It panics on a
// predicate Validate rejects; nil canonicalizes to nil.
func (p *Predicate) Canon() *Predicate {
	if p == nil {
		return nil
	}
	canon := func(clause []string) []string {
		out, err := CanonTags(clause)
		if err != nil {
			panic(fmt.Sprintf("textidx: Canon on invalid predicate: %v", err))
		}
		return out
	}
	return &Predicate{All: canon(p.All), Any: canon(p.Any), Not: canon(p.Not)}
}

// Matches reports whether a canonical-sorted tag set satisfies the
// predicate. Both sides must be canonical (CanonTags / Canon); the store
// and request validation guarantee that for every internal call site.
func (p *Predicate) Matches(tags []string) bool {
	if p == nil {
		return true
	}
	has := func(tag string) bool {
		_, ok := slices.BinarySearch(tags, tag)
		return ok
	}
	for _, tag := range p.All {
		if !has(tag) {
			return false
		}
	}
	if len(p.Any) > 0 {
		ok := false
		for _, tag := range p.Any {
			if has(tag) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, tag := range p.Not {
		if has(tag) {
			return false
		}
	}
	return true
}

// Key returns the canonical cache/wire key of the predicate: "" for nil,
// else a deterministic string two semantically equal predicates share.
// It canonicalizes internally, so differently-ordered clauses key alike.
func (p *Predicate) Key() string {
	if p == nil {
		return ""
	}
	c := p.Canon()
	var b strings.Builder
	b.WriteString("all=")
	b.WriteString(strings.Join(c.All, ","))
	b.WriteString(";any=")
	b.WriteString(strings.Join(c.Any, ","))
	b.WriteString(";not=")
	b.WriteString(strings.Join(c.Not, ","))
	return b.String()
}

// Cell is one leaf cell of the hybrid index: the R-tree leaf's box and
// time span, its segment entries, and the union of tags carried by the
// entries' OIDs. A corridor sweep skips the whole cell when the tag
// union proves no matching object can have a segment there.
type Cell struct {
	Box     geom.AABB
	T0, T1  float64
	Entries []sindex.Entry
	tags    map[string]struct{}
}

// compatible reports whether a matching object could live in this cell:
// false only when the cell's tag union is missing an All tag or (with a
// non-empty Any clause) every Any tag. Not clauses never skip a cell —
// an untagged or differently-tagged cell member may still match.
func (c *Cell) compatible(p *Predicate) bool {
	if p == nil {
		return true
	}
	for _, tag := range p.All {
		if _, ok := c.tags[tag]; !ok {
			return false
		}
	}
	if len(p.Any) > 0 {
		for _, tag := range p.Any {
			if _, ok := c.tags[tag]; ok {
				return true
			}
		}
		return false
	}
	return true
}

// Index is the immutable hybrid keyword index over one store snapshot:
// per-tag inverted OID postings, the OID universe, and per-R-tree-cell
// tag unions. Derive updated views with WithTags/WithObject/
// WithGeometry; the receiver is never modified.
type Index struct {
	universe []int64            // all OIDs, sorted
	tags     map[int64][]string // canonical tag set per OID (absent or nil = untagged)
	postings map[string][]int64 // tag -> sorted OIDs carrying it
	cells    []Cell
	overflow []int64 // sorted OIDs whose geometry or tags postdate the cell build
	churn    int     // copy-on-write derivations since Build
}

// Build constructs the index: universe lists every OID (sorted), tags
// maps OIDs to canonical tag sets (untagged OIDs may be absent), and
// leaves are the segment R-tree's cells (entry IDs are OIDs). The tags
// map is referenced, not copied — callers hand over ownership.
func Build(universe []int64, tags map[int64][]string, leaves []sindex.Leaf) *Index {
	x := &Index{
		universe: slices.Clone(universe),
		tags:     tags,
		postings: make(map[string][]int64),
	}
	slices.Sort(x.universe)
	x.universe = slices.Compact(x.universe)
	if x.tags == nil {
		x.tags = make(map[int64][]string)
	}
	for oid, ts := range x.tags {
		for _, tag := range ts {
			x.postings[tag] = append(x.postings[tag], oid)
		}
	}
	for tag := range x.postings {
		slices.Sort(x.postings[tag])
		x.postings[tag] = slices.Compact(x.postings[tag])
	}
	x.cells = make([]Cell, len(leaves))
	for i, lf := range leaves {
		c := Cell{Box: lf.Box, T0: lf.T0, T1: lf.T1, Entries: lf.Entries, tags: make(map[string]struct{})}
		for _, e := range lf.Entries {
			for _, tag := range x.tags[e.ID] {
				c.tags[tag] = struct{}{}
			}
		}
		x.cells[i] = c
	}
	return x
}

// Len returns the universe size.
func (x *Index) Len() int { return len(x.universe) }

// Overflow returns how many OIDs the cell view no longer covers — the
// store's staleness signal for scheduling a rebuild.
func (x *Index) Overflow() int { return len(x.overflow) }

// Churn returns how many copy-on-write derivations separate this index
// from its Build. Every WithTags/WithObject/WithoutObject step re-clones
// the posting rows it touches, so a long chain keeps paying allocation
// and lookup cost over postings that a fresh Build would have folded
// away — the store cuts the chain once churn outgrows the live
// population, exactly like the segment R-tree's compaction slack.
func (x *Index) Churn() int { return x.churn }

// Tags returns the canonical tag set of an OID (nil when untagged or
// unknown). The returned slice aliases index storage; do not modify.
func (x *Index) Tags(oid int64) []string { return x.tags[oid] }

// Matching returns the sorted OIDs of the universe satisfying the
// predicate; nil predicate returns the whole universe. The result is
// freshly allocated.
func (x *Index) Matching(p *Predicate) []int64 {
	if p == nil {
		return slices.Clone(x.universe)
	}
	var base []int64
	switch {
	case len(p.All) > 0:
		base = slices.Clone(x.postings[p.All[0]])
		for _, tag := range p.All[1:] {
			base = intersectSorted(base, x.postings[tag])
		}
		if len(p.Any) > 0 {
			base = intersectSorted(base, x.unionPostings(p.Any))
		}
	case len(p.Any) > 0:
		base = x.unionPostings(p.Any)
	default:
		base = slices.Clone(x.universe)
	}
	if len(p.Not) > 0 {
		base = subtractSorted(base, x.unionPostings(p.Not))
	}
	return base
}

// Visit calls fn with every OID that may have a segment intersecting the
// query window, until fn returns false; it reports whether the walk ran to
// completion. Per-entry hits come from the cells whose tag union is
// predicate-compatible; every overflow OID follows unconditionally, because
// the cells do not record its geometry. OIDs repeat, and they are not
// matched against p — the caller's snapshot holds the matching objects
// only, so a non-matching OID dies at its lookup, and a hit is in any case
// a reason to test the live plan, not a verdict.
func (x *Index) Visit(box geom.AABB, t0, t1 float64, p *Predicate, fn func(oid int64) bool) bool {
	for i := range x.cells {
		c := &x.cells[i]
		if c.T1 < t0 || c.T0 > t1 || !c.Box.Intersects(box) || !c.compatible(p) {
			continue
		}
		for j := range c.Entries {
			e := &c.Entries[j]
			if e.T1 >= t0 && e.T0 <= t1 && e.Box.Intersects(box) && !fn(e.ID) {
				return false
			}
		}
	}
	for _, oid := range x.overflow {
		if !fn(oid) {
			return false
		}
	}
	return true
}

// WithTags derives an index in which oid carries newTags (canonical; nil
// clears). The OID joins the universe if new, and joins the overflow
// list — the per-cell tag unions were built from the old tag set, so
// cell skips can no longer speak for this OID.
func (x *Index) WithTags(oid int64, newTags []string) *Index {
	nx := x.cloneTop()
	old := nx.tags[oid]
	removed := subtractSortedStr(old, newTags)
	added := subtractSortedStr(newTags, old)
	tags := make(map[int64][]string, len(nx.tags)+1)
	for k, v := range nx.tags {
		tags[k] = v
	}
	if len(newTags) == 0 {
		delete(tags, oid)
	} else {
		tags[oid] = slices.Clone(newTags)
	}
	nx.tags = tags
	if len(removed) > 0 || len(added) > 0 {
		postings := make(map[string][]int64, len(nx.postings))
		for k, v := range nx.postings {
			postings[k] = v
		}
		for _, tag := range removed {
			postings[tag] = removeSorted(postings[tag], oid)
			if len(postings[tag]) == 0 {
				delete(postings, tag)
			}
		}
		for _, tag := range added {
			postings[tag] = insertSorted(postings[tag], oid)
		}
		nx.postings = postings
	}
	nx.universe = insertSorted(nx.universe, oid)
	nx.overflow = insertSorted(nx.overflow, oid)
	return nx
}

// WithObject derives an index whose universe includes oid (untagged
// until WithTags says otherwise) and whose overflow covers its geometry.
func (x *Index) WithObject(oid int64) *Index {
	nx := x.cloneTop()
	nx.universe = insertSorted(nx.universe, oid)
	nx.overflow = insertSorted(nx.overflow, oid)
	return nx
}

// WithGeometry derives an index acknowledging that oid's geometry
// changed: the cells no longer cover it, so it joins the overflow list
// (and the universe, if new).
func (x *Index) WithGeometry(oid int64) *Index {
	return x.WithObject(oid)
}

// WithoutObject derives an index from which oid has been retired: it
// leaves the universe, its postings, and the overflow list. Cell entries
// built over its old geometry stay behind — they can only produce false
// positives: the sweep resolves every hit against its snapshot, which no
// longer contains the OID.
func (x *Index) WithoutObject(oid int64) *Index {
	nx := x.cloneTop()
	old := nx.tags[oid]
	if len(old) > 0 {
		tags := make(map[int64][]string, len(nx.tags))
		for k, v := range nx.tags {
			tags[k] = v
		}
		delete(tags, oid)
		nx.tags = tags
		postings := make(map[string][]int64, len(nx.postings))
		for k, v := range nx.postings {
			postings[k] = v
		}
		for _, tag := range old {
			postings[tag] = removeSorted(postings[tag], oid)
			if len(postings[tag]) == 0 {
				delete(postings, tag)
			}
		}
		nx.postings = postings
	}
	nx.universe = removeSorted(nx.universe, oid)
	nx.overflow = removeSorted(nx.overflow, oid)
	return nx
}

func (x *Index) cloneTop() *Index {
	nx := *x
	nx.churn++
	return &nx
}

func (x *Index) unionPostings(tags []string) []int64 {
	var out []int64
	for _, tag := range tags {
		out = unionSorted(out, x.postings[tag])
	}
	return out
}

func intersectSorted(a, b []int64) []int64 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func unionSorted(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func subtractSorted(a, b []int64) []int64 {
	out := a[:0]
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// subtractSortedStr returns the elements of a not in b (both sorted).
func subtractSortedStr(a, b []string) []string {
	var out []string
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// insertSorted returns a with v inserted: a itself — shared, not copied —
// when v is already a member, which is every plan revision of a known
// object; else a fresh slice, since the receiver index still reads a.
func insertSorted(a []int64, v int64) []int64 {
	i, ok := slices.BinarySearch(a, v)
	if ok {
		return a
	}
	out := make([]int64, 0, len(a)+1)
	out = append(out, a[:i]...)
	out = append(out, v)
	return append(out, a[i:]...)
}

func removeSorted(a []int64, v int64) []int64 {
	i, ok := slices.BinarySearch(a, v)
	if !ok {
		return a
	}
	out := make([]int64, 0, len(a)-1)
	out = append(out, a[:i]...)
	return append(out, a[i+1:]...)
}
