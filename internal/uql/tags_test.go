package uql

// The spatio-textual UQL surface: TAGS CONTAINS clauses parse into
// canonical predicates, render back through String, and evaluate with
// sub-MOD semantics — a filtered statement answers exactly like the plain
// statement over a store rebuilt from only the matching trajectories
// (plus the exempt query), at every probability bound: possible-NN,
// threshold (> p) and CertainNN.

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/mod"
	"repro/internal/textidx"
)

func TestParseTagClauses(t *testing.T) {
	base := "SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 5, Time) > 0"
	cases := []struct {
		suffix string
		want   *textidx.Predicate
	}{
		{" AND TAGS CONTAINS ALL ('available')", &textidx.Predicate{All: []string{"available"}}},
		{" and tags contains any ('EV', 'Wheelchair')", &textidx.Predicate{Any: []string{"ev", "wheelchair"}}},
		{" AND TAGS CONTAINS NONE ('ev')", &textidx.Predicate{Not: []string{"ev"}}},
		// Repeated ALL/NONE clauses union; duplicates collapse; sets sort.
		{" AND TAGS CONTAINS ALL ('b', 'a') AND TAGS CONTAINS ALL ('c', 'a')",
			&textidx.Predicate{All: []string{"a", "b", "c"}}},
		{" AND TAGS CONTAINS ALL ('available') AND TAGS CONTAINS ANY ('ev') AND TAGS CONTAINS NONE ('pool')",
			&textidx.Predicate{All: []string{"available"}, Any: []string{"ev"}, Not: []string{"pool"}}},
	}
	for _, c := range cases {
		st, err := Parse(base + c.suffix)
		if err != nil {
			t.Errorf("%q: %v", c.suffix, err)
			continue
		}
		if !reflect.DeepEqual(st.Where, c.want) {
			t.Errorf("%q: Where = %+v, want %+v", c.suffix, st.Where, c.want)
		}
		// String round-trip preserves the whole AST, clause included.
		st2, err := Parse(st.String())
		if err != nil {
			t.Errorf("round trip of %q (%q): %v", c.suffix, st.String(), err)
			continue
		}
		if !reflect.DeepEqual(st, st2) {
			t.Errorf("round trip changed: %+v vs %+v", st, st2)
		}
	}
}

func TestParseTagClauseErrors(t *testing.T) {
	base := "SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 5, Time) > 0"
	cases := []string{
		" AND TAGS CONTAINS ALL ('a', 'b') AND TAGS CONTAINS ANY ('c') AND TAGS CONTAINS ANY ('d')", // two ANY
		" AND TAGS CONTAINS ALL ()",             // empty list
		" AND TAGS CONTAINS ALL ('a' 'b')",      // missing comma
		" AND TAGS CONTAINS ALL ('a',)",         // trailing comma
		" AND TAGS CONTAINS SOME ('a')",         // bad mode
		" AND TAGS ALL ('a')",                   // missing CONTAINS
		" AND TAGS CONTAINS ALL ('bad tag')",    // space not in charset
		" AND TAGS CONTAINS ALL ('unterminated", // unterminated literal
		" AND TAGS CONTAINS ALL ('')",           // empty tag
	}
	for _, c := range cases {
		if _, err := Parse(base + c); !errors.Is(err, ErrParse) {
			t.Errorf("%q: err = %v, want ErrParse", c, err)
		}
	}
}

// taggedStore tags the shared test store deterministically by OID.
func taggedStore(t *testing.T) *mod.Store {
	t.Helper()
	st := testStore(t)
	for _, oid := range st.OIDs() {
		var tags []string
		if oid%2 == 0 {
			tags = append(tags, "available")
		}
		if oid%3 == 0 {
			tags = append(tags, "ev")
		}
		if tags != nil {
			if err := st.SetTags(oid, tags); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// subStore rebuilds a store from only the trajectories matching where,
// plus the exempt query trajectory.
func subStore(t *testing.T, st *mod.Store, where *textidx.Predicate, queryOID int64) *mod.Store {
	t.Helper()
	out, err := mod.NewUniformStore(st.Radius())
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range st.OIDs() {
		if oid != queryOID && !where.Matches(st.Tags(oid)) {
			continue
		}
		tr, err := st.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestEvalTagClauseSubMOD(t *testing.T) {
	st := taggedStore(t)
	where := &textidx.Predicate{All: []string{"available"}}
	const q = 1 // untagged: the query is exempt from the predicate

	// One statement per bound and target: possible-NN whole-MOD and
	// single-target, threshold (> p), and CertainNN.
	cases := []struct {
		filtered, plain string
	}{
		{
			"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0 AND TAGS CONTAINS ALL ('available')",
			"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0",
		},
		{
			"SELECT 2 FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(2, 1, Time) > 0 AND TAGS CONTAINS ALL ('available')",
			"SELECT 2 FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(2, 1, Time) > 0",
		},
		{
			"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0.25 AND TAGS CONTAINS ALL ('available')",
			"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0.25",
		},
		{
			"SELECT T FROM MOD WHERE FORALL Time IN [0, 60] AND CertainNN(T, 1, Time) > 0 AND TAGS CONTAINS ALL ('available')",
			"SELECT T FROM MOD WHERE FORALL Time IN [0, 60] AND CertainNN(T, 1, Time) > 0",
		},
	}
	sub := subStore(t, st, where, q)
	for _, c := range cases {
		got, err := run(c.filtered, st)
		if err != nil {
			t.Fatalf("%q: %v", c.filtered, err)
		}
		want, err := run(c.plain, sub)
		if err != nil {
			t.Fatalf("%q over sub-store: %v", c.plain, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q:\n filtered  %v\n sub-store %v", c.filtered, got, want)
		}
	}

	// An existing target that fails the predicate answers false, at every
	// probability bound.
	for _, src := range []string{
		"SELECT 3 FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(3, 1, Time) > 0 AND TAGS CONTAINS ALL ('available')",
		"SELECT 3 FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(3, 1, Time) > 0.25 AND TAGS CONTAINS ALL ('available')",
		"SELECT 3 FROM MOD WHERE FORALL Time IN [0, 60] AND CertainNN(3, 1, Time) > 0 AND TAGS CONTAINS ALL ('available')",
	} {
		res, err := run(src, st)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if !res.IsBool || res.Bool {
			t.Errorf("%q = %v, want false (target 3 is not available)", src, res)
		}
	}
}
