package uql

// FuzzUQLWhere drives Parse with arbitrary input, centered on the TAGS
// CONTAINS surface. Invariants: never panic; a successful parse carries
// either no predicate or one whose clauses Normalize keeps as they are;
// the canonical String render re-parses; and the re-parsed predicate is
// tag-for-tag identical (tags are exact strings, so no float-rendering
// slack applies).

import (
	"reflect"
	"testing"
)

func FuzzUQLWhere(f *testing.F) {
	seeds := []string{
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 5, Time) > 0",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 5, Time) > 0 AND TAGS CONTAINS ALL ('available')",
		"SELECT 3 FROM MOD WHERE ATLEAST 25% Time IN [10, 50] AND ProbabilityKNN(3, 9, Time, 4) > 0 AND TAGS CONTAINS ANY ('ev', 'wheelchair')",
		"SELECT 4 FROM MOD WHERE AT Time = 30 WITHIN [0, 60] AND CertainNN(4, 1, Time) > 0 AND TAGS CONTAINS NONE ('pool')",
		"SELECT T FROM MOD WHERE FORALL Time IN [0, 60] AND ProbabilityNN(T, 2, Time) > 0.5 AND TAGS CONTAINS ALL ('a') AND TAGS CONTAINS ALL ('b') AND TAGS CONTAINS NONE ('c')",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 5, Time) > 0 AND TAGS CONTAINS ALL ('A', 'a', 'z9._:@/+-')",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 5, Time) > 0 AND TAGS CONTAINS ANY ('x') AND TAGS CONTAINS ANY ('y')",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 5, Time) > 0 AND TAGS CONTAINS ALL ('unterminated",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 5, Time) > 0 AND TAGS CONTAINS ALL ()",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 5, Time) > 0 AND TAGS",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return
		}
		if n, err := st.Where.Normalize(); err != nil || n.Key() != st.Where.Key() {
			t.Fatalf("parse accepted a predicate %+v that is not canonical: %v", st.Where, err)
		}
		st2, err := Parse(st.String())
		if err != nil {
			t.Fatalf("canonical render %q does not re-parse: %v", st.String(), err)
		}
		if !reflect.DeepEqual(st.Where, st2.Where) {
			t.Fatalf("predicate changed across render: %+v vs %+v", st.Where, st2.Where)
		}
	})
}

// FuzzUQLCompile holds the compiler to the one query route: every
// statement Parse accepts compiles to an engine.Request that passes
// Normalize, and the statement's canonical render compiles to the identical
// Request.
func FuzzUQLCompile(f *testing.F) {
	seeds := []string{
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 5, Time) > 0",
		"SELECT 3 FROM MOD WHERE FORALL Time IN [0, 60] AND ProbabilityNN(3, 5, Time) > 0.25",
		"SELECT T FROM MOD WHERE ATLEAST 7% Time IN [-3.5, 1e3] AND ProbabilityNN(T, 5, Time) > 0.999",
		"SELECT 4 FROM MOD WHERE AT Time = 30 WITHIN [0, 60] AND CertainNN(4, 1, Time) > 0",
		"SELECT T FROM MOD WHERE AT Time = 0 WITHIN [0, 60] AND CertainNN(T, 1, Time) > 0 AND TAGS CONTAINS ANY ('ev')",
		"SELECT T FROM MOD WHERE ATLEAST 0% Time IN [0, 60] AND ProbabilityKNN(T, 2, Time, 3) > 0",
		"SELECT 9 FROM MOD WHERE AT Time = 60 WITHIN [0, 60] AND ProbabilityKNN(9, 2, Time, 1) > 0",
		"SELECT T FROM MOD WHERE ATLEAST 100% Time IN [0, 60] AND ProbabilityNN(T, 2, Time) > 0.5 AND TAGS CONTAINS NONE ('x')",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return
		}
		req := Compile(st)
		if _, err := req.Normalize(); err != nil {
			t.Fatalf("%q compiles to an invalid request %+v: %v", src, req, err)
		}
		st2, err := Parse(st.String())
		if err != nil {
			t.Fatalf("canonical render %q does not re-parse: %v", st.String(), err)
		}
		if req2 := Compile(st2); !reflect.DeepEqual(req, req2) {
			t.Fatalf("render %q compiles differently:\n %+v\n %+v", st.String(), req, req2)
		}
	})
}
