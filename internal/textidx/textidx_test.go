package textidx

import (
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
