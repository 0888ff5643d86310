// Package textidx is the textual half of the spatio-textual query stack:
// canonical keyword/attribute tags on trajectories and ALL/ANY/NOT
// predicates over them. A predicate is normalized once, by the entry that
// accepts it (Predicate.Normalize), and read as it is below that.
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
//
// Every entry that accepts a predicate normalizes it once (Normalize);
// below the entry, clauses and key are read as they are. A normalized
// predicate must not be modified.
type Predicate struct {
	All []string `json:"all,omitempty"`
	Any []string `json:"any,omitempty"`
	Not []string `json:"not,omitempty"`

	// key is set by Normalize alone, on the clauses it canonicalized; ""
	// marks a predicate that was never normalized.
	key string
}

// Normalize checks the predicate and returns its normalized form: every
// clause canonicalized (CanonTags) and its Key stored. It fails with
// ErrBadPredicate, returning p, on an empty predicate, a bad tag or a
// clause of more than MaxTags tags. A nil or already normalized p is
// returned without allocating; p itself is never modified.
func (p *Predicate) Normalize() (*Predicate, error) {
	if p == nil || p.key != "" {
		return p, nil
	}
	if len(p.All)+len(p.Any)+len(p.Not) == 0 {
		return p, fmt.Errorf("%w: empty predicate (use no predicate instead)", ErrBadPredicate)
	}
	n := &Predicate{}
	for i, out := range [...]*[]string{&n.All, &n.Any, &n.Not} {
		in := [...][]string{p.All, p.Any, p.Not}[i]
		canon, err := CanonTags(in)
		if err == nil && len(in) > MaxTags {
			err = fmt.Errorf("clause of %d tags (max %d)", len(in), MaxTags)
		}
		if err != nil {
			return p, fmt.Errorf("%w: %v", ErrBadPredicate, err)
		}
		*out = canon
	}
	n.key = n.Key()
	return n, nil
}

// Canon is Normalize without the error: p itself when p is invalid.
func (p *Predicate) Canon() *Predicate {
	n, _ := p.Normalize()
	return n
}

// Matches reports whether a canonical-sorted tag set (CanonTags)
// satisfies the predicate, which must be normalized; the store and every
// entry guarantee both for every internal call site.
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
	if len(p.Any) > 0 && !slices.ContainsFunc(p.Any, has) {
		return false
	}
	for _, tag := range p.Not {
		if has(tag) {
			return false
		}
	}
	return true
}

// Key returns the predicate's cache/wire key: "" for nil, else the key
// Normalize stored, which two semantically equal predicates share. A
// predicate that was never normalized keys its clauses as written, never
// as "", so it cannot alias the unfiltered key.
func (p *Predicate) Key() string {
	if p == nil {
		return ""
	}
	if p.key != "" {
		return p.key
	}
	return "all=" + strings.Join(p.All, ",") + ";any=" + strings.Join(p.Any, ",") + ";not=" + strings.Join(p.Not, ",")
}
