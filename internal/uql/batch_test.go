package uql

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/workload"
)

func batchStore(t *testing.T, n int) *mod.Store {
	t.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := workload.Generate(workload.DefaultConfig(17), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	return st
}

// batchScript covers every statement family: Categories 1-4, ranked,
// fixed-time, quantitative, threshold, and certain predicates.
var batchScript = []string{
	"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0",
	"SELECT T FROM MOD WHERE FORALL Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0",
	"SELECT T FROM MOD WHERE ATLEAST 25% Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0",
	"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityKNN(T, 1, Time, 3) > 0",
	"SELECT T FROM MOD WHERE ATLEAST 10% Time IN [0, 60] AND ProbabilityKNN(T, 1, Time, 2) > 0",
	"SELECT T FROM MOD WHERE AT Time = 30 WITHIN [0, 60] AND ProbabilityNN(T, 1, Time) > 0",
	"SELECT 2 FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(2, 1, Time) > 0",
	"SELECT 3 FROM MOD WHERE FORALL Time IN [0, 60] AND ProbabilityKNN(3, 1, Time, 2) > 0",
	"SELECT 4 FROM MOD WHERE AT Time = 15 WITHIN [0, 60] AND ProbabilityNN(4, 1, Time) > 0",
	"SELECT 2 FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(2, 1, Time) > 0.4",
	"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND CertainNN(T, 1, Time) > 0",
	"SELECT 2 FROM MOD WHERE EXISTS Time IN [0, 60] AND CertainNN(2, 1, Time) > 0",
}

// compileScript parses and compiles every statement of a script.
func compileScript(t *testing.T, srcs []string) []engine.Request {
	t.Helper()
	reqs := make([]engine.Request, len(srcs))
	for i, src := range srcs {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		reqs[i] = Compile(st)
	}
	return reqs
}

// TestRunBatchMatchesSerial: a compiled script answered as one
// parallel DoBatch agrees with one serial Do per statement, on every
// statement family.
func TestRunBatchMatchesSerial(t *testing.T) {
	store := batchStore(t, 24)
	reqs := compileScript(t, batchScript)
	results, err := engine.New(0).DoBatch(context.Background(), store, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(batchScript) {
		t.Fatalf("got %d results, want %d", len(results), len(batchScript))
	}
	for i, src := range batchScript {
		want, err := run(src, store)
		if err != nil {
			t.Fatalf("serial %q: %v", src, err)
		}
		got := answer{IsBool: results[i].IsBool, Bool: results[i].Bool, OIDs: results[i].OIDs}
		if results[i].Err != nil {
			t.Errorf("batch %q: %v", src, results[i].Err)
			continue
		}
		if got.IsBool != want.IsBool || got.Bool != want.Bool || !slices.Equal(got.OIDs, want.OIDs) {
			t.Errorf("%q:\n batch  %+v\n serial %+v", src, got, want)
		}
	}
}

// TestRunBatchPartialFailure: a statement that fails to evaluate reports
// its own error without aborting its siblings.
func TestRunBatchPartialFailure(t *testing.T) {
	store := batchStore(t, 15)
	reqs := compileScript(t, []string{
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 99999, Time) > 0",
		"SELECT T FROM MOD WHERE FORALL Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0",
	})
	results, err := engine.New(2).DoBatch(context.Background(), store, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Errorf("item 0: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, mod.ErrNotFound) {
		t.Errorf("item 1: got %v, want mod.ErrNotFound", results[1].Err)
	}
	if results[2].Err != nil {
		t.Errorf("item 2: %v", results[2].Err)
	}
}

// TestRunBatchSharesProcessor: all statements over one (TrQ, window) hit
// a single memo entry, at every probability bound.
func TestRunBatchSharesProcessor(t *testing.T) {
	store := batchStore(t, 20)
	eng := engine.New(2)
	res, err := eng.DoBatch(context.Background(), store, compileScript(t, batchScript))
	if err != nil {
		t.Fatal(err)
	}
	// The batch builds its one (query, window) processor up front, at the
	// deepest rank it asks for; every statement then reuses it.
	for i, r := range res {
		if r.Err != nil || !r.Explain.MemoHit {
			t.Errorf("statement %d: err %v, memo hit %v; want a hit on the one shared build", i, r.Err, r.Explain.MemoHit)
		}
	}
}
