// Package textidx is the textual half of the spatio-textual query stack:
// canonical keyword/attribute tags on trajectories and ALL/ANY/NOT
// predicates over them.
//
// A predicate query runs over the sub-MOD of matching objects: filtered
// objects do not block, do not shape the envelope, and cannot answer —
// the result is byte-identical to rebuilding a store from only the
// matching trajectories and running the plain engine. The pre-pass gets
// there by restricting its snapshot (prune.takeSnapshot) and walking the
// one segment R-tree; a non-matching nomination dies at the snapshot's
// OID table.
//
// There is deliberately no keyword index here. Tags are a handful of
// fleet-wide flags, each matched by a large share of the objects, so
// per-cell inverted lists hung off the R-tree's leaves almost never
// exclude a cell. Measured (EXPERIMENTS.md, "Why there is no keyword
// index"): a filtered pre-pass at N = 3 000 and 20 000, 50 % to 0.5 %
// selectivity, runs equally fast with and without them, while keeping
// them live made a bulk-ingest batch 2.7× dearer (adhoc_cold
// ingest_batch_p50_ms 8.8 → 3.3 ms, alloc_kb_per_op 2 051 → 508 without).
package textidx

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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
