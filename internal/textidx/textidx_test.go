package textidx

import (
	"errors"
	"slices"
	"testing"
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

func TestPredicateNormalizeKey(t *testing.T) {
	var nilPred *Predicate
	if n, err := nilPred.Normalize(); n != nil || err != nil {
		t.Fatalf("nil predicate: %v, %v", n, err)
	}
	if nilPred.Key() != "" {
		t.Fatal("nil predicate keys non-empty")
	}
	for _, bad := range []*Predicate{{}, {All: []string{"bad tag"}}, {Not: make([]string, MaxTags+1)}} {
		n, err := bad.Normalize()
		if n != bad || !errors.Is(err, ErrBadPredicate) {
			t.Fatalf("Normalize(%+v) = %v, %v; want ErrBadPredicate", bad, n, err)
		}
		if (*Predicate).Canon(bad) != bad {
			t.Fatalf("Canon(%+v) did not return its invalid receiver", bad)
		}
		if bad.Key() == "" {
			t.Fatalf("invalid %+v keys as unfiltered", bad)
		}
	}
	a := &Predicate{All: []string{"EV", "Available"}, Not: []string{"retired"}}
	b := &Predicate{All: []string{"available", "ev"}, Not: []string{"Retired"}}
	na, err := a.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(na.All, []string{"available", "ev"}) || !slices.Equal(na.Not, []string{"retired"}) || na.Any != nil {
		t.Fatalf("Normalize = %+v", na)
	}
	if !slices.Equal(a.All, []string{"EV", "Available"}) || a.key != "" {
		t.Fatalf("Normalize mutated its receiver: %+v", a)
	}
	if nb, err := b.Normalize(); err != nil || na.Key() != nb.Key() || (*Predicate).Canon(b).Key() != nb.Key() {
		t.Fatalf("keys differ: %q vs %q (%v)", na.Key(), nb.Key(), err)
	}
	if a.Key() == na.Key() {
		t.Fatal("a never-normalized predicate keyed as its normalized form")
	}
	if nany, _ := (&Predicate{Any: []string{"available", "ev"}, Not: []string{"retired"}}).Normalize(); na.Key() == nany.Key() {
		t.Fatal("ALL and ANY key alike")
	}
	again, err := na.Normalize()
	if again != na || err != nil {
		t.Fatalf("Normalize on a normalized predicate = %p, %v; want the receiver", again, err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = na.Normalize(); _ = na.Key() }); n != 0 {
		t.Fatalf("a normalized predicate's Normalize and Key allocate %v times", n)
	}
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
