package textidx

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/sindex"
)

func TestCanonTag(t *testing.T) {
	good := map[string]string{
		"Wheelchair":  "wheelchair",
		"  ev  ":      "ev",
		"zone:north":  "zone:north",
		"a_b.c@d/e+f": "a_b.c@d/e+f",
		"X-1":         "x-1",
	}
	for in, want := range good {
		got, err := CanonTag(in)
		if err != nil || got != want {
			t.Errorf("CanonTag(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	bad := []string{"", "   ", "has space", "semi;colon", "q'uote", "comma,", "päron",
		string(make([]byte, MaxTagLen+1))}
	for _, in := range bad {
		if _, err := CanonTag(in); err == nil {
			t.Errorf("CanonTag(%q) accepted", in)
		}
	}
}

func TestCanonTags(t *testing.T) {
	got, err := CanonTags([]string{"EV", "available", "ev", "Available"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []string{"available", "ev"}) {
		t.Fatalf("CanonTags = %v", got)
	}
	if out, err := CanonTags(nil); err != nil || out != nil {
		t.Fatalf("CanonTags(nil) = %v, %v", out, err)
	}
	many := make([]string, MaxTags+1)
	for i := range many {
		many[i] = "t" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	if _, err := CanonTags(many); err == nil {
		t.Fatal("CanonTags accepted oversized set")
	}
	if _, err := CanonTags([]string{"ok", "not ok"}); err == nil {
		t.Fatal("CanonTags accepted bad member")
	}
}

func TestPredicateValidateCanonKey(t *testing.T) {
	var nilPred *Predicate
	if err := nilPred.Validate(); err != nil {
		t.Fatalf("nil predicate invalid: %v", err)
	}
	if nilPred.Canon() != nil || nilPred.Key() != "" {
		t.Fatal("nil predicate canon/key")
	}
	if err := (&Predicate{}).Validate(); err == nil {
		t.Fatal("empty predicate accepted")
	}
	if err := (&Predicate{All: []string{"bad tag"}}).Validate(); err == nil {
		t.Fatal("bad tag accepted")
	}
	a := &Predicate{All: []string{"EV", "Available"}, Not: []string{"retired"}}
	b := &Predicate{All: []string{"available", "ev"}, Not: []string{"Retired"}}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	if a.Key() == (&Predicate{Any: []string{"available", "ev"}, Not: []string{"retired"}}).Key() {
		t.Fatal("ALL and ANY key alike")
	}
	c := a.Canon()
	if !slices.Equal(c.All, []string{"available", "ev"}) || !slices.Equal(c.Not, []string{"retired"}) {
		t.Fatalf("Canon = %+v", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Canon on invalid predicate did not panic")
		}
	}()
	(&Predicate{All: []string{"bad tag"}}).Canon()
}

func TestPredicateMatches(t *testing.T) {
	tags := []string{"available", "ev", "wheelchair"} // canonical sorted
	cases := []struct {
		p    *Predicate
		want bool
	}{
		{nil, true},
		{&Predicate{All: []string{"available", "wheelchair"}}, true},
		{&Predicate{All: []string{"available", "diesel"}}, false},
		{&Predicate{Any: []string{"diesel", "ev"}}, true},
		{&Predicate{Any: []string{"diesel", "gas"}}, false},
		{&Predicate{Not: []string{"retired"}}, true},
		{&Predicate{Not: []string{"ev"}}, false},
		{&Predicate{All: []string{"ev"}, Any: []string{"available"}, Not: []string{"retired"}}, true},
		{&Predicate{All: []string{"ev"}, Any: []string{"diesel"}}, false},
	}
	for i, c := range cases {
		if got := c.p.Matches(tags); got != c.want {
			t.Errorf("case %d: Matches = %v, want %v", i, got, c.want)
		}
	}
	// Untagged objects match NOT-only predicates and fail ALL/ANY.
	if !(&Predicate{Not: []string{"retired"}}).Matches(nil) {
		t.Fatal("untagged failed NOT-only predicate")
	}
	if (&Predicate{Any: []string{"ev"}}).Matches(nil) {
		t.Fatal("untagged matched ANY predicate")
	}
}

// buildFixture makes a deterministic universe of n OIDs with pseudo-random
// tag sets over a small vocabulary, plus one R-tree leaf view with one
// entry per OID laid out on a line.
func buildFixture(t *testing.T, n int) (*Index, map[int64][]string, []sindex.Leaf) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"available", "ev", "wheelchair", "pool", "night"}
	tags := make(map[int64][]string)
	universe := make([]int64, 0, n)
	var entries []sindex.Entry
	for i := 0; i < n; i++ {
		oid := int64(i + 1)
		universe = append(universe, oid)
		var ts []string
		for _, v := range vocab {
			if rng.Intn(3) == 0 {
				ts = append(ts, v)
			}
		}
		canon, err := CanonTags(ts)
		if err != nil {
			t.Fatal(err)
		}
		if canon != nil {
			tags[oid] = canon
		}
		x := float64(i)
		entries = append(entries, sindex.Entry{
			ID: oid, Box: geom.AABB{MinX: x, MinY: 0, MaxX: x + 1, MaxY: 1}, T0: 0, T1: 10,
		})
	}
	leaves := sindex.NewRTree(entries, 4).Leaves()
	tagsCopy := make(map[int64][]string, len(tags))
	for k, v := range tags {
		tagsCopy[k] = v
	}
	return Build(universe, tagsCopy, leaves), tags, leaves
}

func bruteMatch(universe []int64, tags map[int64][]string, p *Predicate) []int64 {
	var out []int64
	for _, oid := range universe {
		if p.Matches(tags[oid]) {
			out = append(out, oid)
		}
	}
	return out
}

func fixturePreds() []*Predicate {
	return []*Predicate{
		nil,
		{All: []string{"available"}},
		{All: []string{"available", "ev"}},
		{All: []string{"available", "ev", "wheelchair"}},
		{Any: []string{"pool", "night"}},
		{Not: []string{"night"}},
		{All: []string{"ev"}, Any: []string{"pool", "wheelchair"}, Not: []string{"night"}},
		{All: []string{"nosuchtag"}},
		{Any: []string{"nosuchtag"}},
		{Not: []string{"nosuchtag"}},
	}
}

func TestMatchingAgainstBruteForce(t *testing.T) {
	x, tags, _ := buildFixture(t, 200)
	universe := make([]int64, 0, 200)
	for i := int64(1); i <= 200; i++ {
		universe = append(universe, i)
	}
	for i, p := range fixturePreds() {
		got := x.Matching(p)
		want := bruteMatch(universe, tags, p)
		if !slices.Equal(got, want) {
			t.Errorf("pred %d: Matching = %v, want %v", i, got, want)
		}
		set := x.MatchSet(p)
		if len(set) != len(want) {
			t.Errorf("pred %d: MatchSet size %d, want %d", i, len(set), len(want))
		}
		for _, oid := range want {
			if _, ok := set[oid]; !ok {
				t.Errorf("pred %d: MatchSet missing %d", i, oid)
			}
		}
	}
	if x.Len() != 200 {
		t.Fatalf("Len = %d", x.Len())
	}
}

// TestCorridorHitsConservative: every matching OID with an entry
// intersecting the window must be reported (hits are a superset).
func TestCorridorHitsConservative(t *testing.T) {
	x, tags, leaves := buildFixture(t, 200)
	windows := []struct {
		box    geom.AABB
		t0, t1 float64
	}{
		{geom.AABB{MinX: 10, MinY: 0, MaxX: 30, MaxY: 1}, 0, 10},
		{geom.AABB{MinX: 0, MinY: 0, MaxX: 250, MaxY: 1}, 0, 10},
		{geom.AABB{MinX: 50, MinY: 5, MaxX: 60, MaxY: 9}, 2, 3},
		{geom.AABB{MinX: -10, MinY: -5, MaxX: -1, MaxY: -1}, 0, 10}, // disjoint
		{geom.AABB{MinX: 10, MinY: 0, MaxX: 30, MaxY: 1}, 20, 30},   // time-disjoint
	}
	for wi, w := range windows {
		for pi, p := range fixturePreds() {
			match := x.MatchSet(p)
			got := x.CorridorHits(w.box, w.t0, w.t1, p, match)
			set := make(map[int64]struct{}, len(got))
			for _, id := range got {
				set[id] = struct{}{}
			}
			for _, lf := range leaves {
				for _, e := range lf.Entries {
					inWindow := e.T1 >= w.t0 && e.T0 <= w.t1 && e.Box.Intersects(w.box)
					if inWindow && p.Matches(tags[e.ID]) {
						if _, ok := set[e.ID]; !ok {
							t.Fatalf("window %d pred %d: hit %d missing", wi, pi, e.ID)
						}
					}
				}
			}
			// And never a non-matching OID.
			for id := range set {
				if !p.Matches(tags[id]) {
					t.Fatalf("window %d pred %d: non-matching hit %d", wi, pi, id)
				}
			}
		}
	}
}

func TestCellSkipPrunes(t *testing.T) {
	// Tags clustered by location: left half "west", right half "east".
	var entries []sindex.Entry
	tags := make(map[int64][]string)
	var universe []int64
	for i := 0; i < 64; i++ {
		oid := int64(i + 1)
		universe = append(universe, oid)
		x := float64(i)
		entries = append(entries, sindex.Entry{ID: oid,
			Box: geom.AABB{MinX: x, MinY: 0, MaxX: x + 1, MaxY: 1}, T0: 0, T1: 1})
		if i < 32 {
			tags[oid] = []string{"west"}
		} else {
			tags[oid] = []string{"east"}
		}
	}
	x := Build(universe, tags, sindex.NewRTree(entries, 4).Leaves())
	p := &Predicate{All: []string{"east"}}
	hits := x.CorridorHits(geom.AABB{MinX: 0, MinY: 0, MaxX: 64, MaxY: 1}, 0, 1, p, x.MatchSet(p))
	for _, id := range hits {
		if id <= 32 {
			t.Fatalf("west OID %d reported for east predicate", id)
		}
	}
	if len(hits) != 32 {
		t.Fatalf("got %d east hits, want 32", len(hits))
	}
}

func TestWithTagsCopyOnWrite(t *testing.T) {
	x, _, _ := buildFixture(t, 50)
	before := x.Matching(&Predicate{All: []string{"newtag"}})
	if len(before) != 0 {
		t.Fatal("newtag already present")
	}
	y := x.WithTags(7, []string{"newtag"})
	if got := y.Matching(&Predicate{All: []string{"newtag"}}); !slices.Equal(got, []int64{7}) {
		t.Fatalf("derived Matching = %v", got)
	}
	if got := x.Matching(&Predicate{All: []string{"newtag"}}); len(got) != 0 {
		t.Fatalf("original mutated: %v", got)
	}
	if !slices.Equal(y.Tags(7), []string{"newtag"}) {
		t.Fatalf("Tags(7) = %v", y.Tags(7))
	}
	if y.Overflow() != 1 {
		t.Fatalf("Overflow = %d", y.Overflow())
	}
	// Tag flip must keep the flipped OID in corridor hits regardless of
	// stale cell tag unions (overflow covers it).
	p := &Predicate{All: []string{"newtag"}}
	hits := y.CorridorHits(geom.AABB{MinX: 1000, MinY: 1000, MaxX: 1001, MaxY: 1001}, 0, 1, p, y.MatchSet(p))
	if !slices.Contains(hits, int64(7)) {
		t.Fatalf("overflow OID 7 not reported: %v", hits)
	}
	// Clearing tags removes from postings.
	z := y.WithTags(7, nil)
	if got := z.Matching(p); len(got) != 0 {
		t.Fatalf("cleared tag still matches: %v", got)
	}
	if z.Tags(7) != nil {
		t.Fatal("Tags(7) not cleared")
	}
}

func TestWithObjectAndGeometry(t *testing.T) {
	x, _, _ := buildFixture(t, 10)
	y := x.WithObject(99)
	if y.Len() != 11 || x.Len() != 10 {
		t.Fatalf("Len: derived %d original %d", y.Len(), x.Len())
	}
	if got := y.Matching(nil); !slices.Contains(got, int64(99)) {
		t.Fatal("new OID not in universe")
	}
	// Untagged newcomer matches NOT-only predicates and shows in hits.
	p := &Predicate{Not: []string{"available"}}
	hits := y.CorridorHits(geom.AABB{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0, 1, p, y.MatchSet(p))
	if !slices.Contains(hits, int64(99)) {
		t.Fatal("overflow newcomer missing from hits")
	}
	z := y.WithGeometry(3)
	if z.Overflow() != 2 {
		t.Fatalf("Overflow = %d", z.Overflow())
	}
	// Idempotent for an already-overflowed OID.
	if z.WithGeometry(3).Overflow() != 2 {
		t.Fatal("overflow duplicated")
	}
}

func TestLeavesAccessor(t *testing.T) {
	var entries []sindex.Entry
	for i := 0; i < 33; i++ {
		x := float64(i)
		entries = append(entries, sindex.Entry{ID: int64(i),
			Box: geom.AABB{MinX: x, MinY: 0, MaxX: x + 1, MaxY: 1}, T0: float64(i), T1: float64(i + 1)})
	}
	tr := sindex.NewRTree(entries, 4)
	leaves := tr.Leaves()
	total := 0
	for _, lf := range leaves {
		total += len(lf.Entries)
		for _, e := range lf.Entries {
			if !lf.Box.Intersects(e.Box) {
				t.Fatalf("leaf box %+v does not cover entry %+v", lf.Box, e)
			}
			if e.T0 < lf.T0 || e.T1 > lf.T1 {
				t.Fatalf("leaf span [%g,%g] does not cover entry [%g,%g]", lf.T0, lf.T1, e.T0, e.T1)
			}
		}
	}
	if total != 33 {
		t.Fatalf("leaves cover %d entries, want 33", total)
	}
	var empty *sindex.RTree
	if empty.Leaves() != nil {
		t.Fatal("nil tree leaves")
	}
	if sindex.NewRTree(nil, 4).Leaves() != nil {
		t.Fatal("empty tree leaves")
	}
}

// MatchSet is Matching as a membership set.
func (x *Index) MatchSet(p *Predicate) map[int64]struct{} {
	set := make(map[int64]struct{})
	for _, id := range x.Matching(p) {
		set[id] = struct{}{}
	}
	return set
}

// CorridorHits collects Visit's OIDs that are in match — the slice-returning
// form the sweep used before it became a visitor, kept for these tests.
func (x *Index) CorridorHits(box geom.AABB, t0, t1 float64, p *Predicate, match map[int64]struct{}) []int64 {
	var out []int64
	x.Visit(box, t0, t1, p, func(oid int64) bool {
		if _, ok := match[oid]; ok {
			out = append(out, oid)
		}
		return true
	})
	return out
}

// TestKnownObjectSharesMembershipSlices: a plan revision of an object the
// index already lists (universe and overflow) must not copy either list —
// the derivation costs the Index header and nothing else.
func TestKnownObjectSharesMembershipSlices(t *testing.T) {
	universe := make([]int64, 3000)
	for i := range universe {
		universe[i] = int64(i)
	}
	x := Build(universe, nil, nil).WithGeometry(1500)
	if x.Overflow() != 1 {
		t.Fatalf("overflow = %d, want 1", x.Overflow())
	}
	var y *Index
	if allocs := testing.AllocsPerRun(100, func() { y = x.WithGeometry(1500) }); allocs != 1 {
		t.Fatalf("WithGeometry of a known overflow OID allocates %v times, want 1 (the Index header)", allocs)
	}
	if &y.universe[0] != &x.universe[0] || &y.overflow[0] != &x.overflow[0] {
		t.Fatal("membership slices were copied, want them shared")
	}
	// A new member still leaves the receiver's lists untouched.
	z := x.WithGeometry(1501)
	if x.Overflow() != 1 || z.Overflow() != 2 || !slices.Equal(z.overflow, []int64{1500, 1501}) {
		t.Fatalf("overflow after insert: receiver %v, derived %v", x.overflow, z.overflow)
	}
}
