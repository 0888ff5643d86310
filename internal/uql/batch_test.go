package uql

import (
	"context"
	"errors"
	"fmt"
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
	"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0.4",
	"SELECT 2 FROM MOD WHERE EXISTS Time IN [0, 60] AND CertainNN(2, 1, Time) > 0",
}

// TestRunBatchMatchesSerial: the engine-backed batch must agree with the
// serial Run on every statement family.
func TestRunBatchMatchesSerial(t *testing.T) {
	store := batchStore(t, 24)
	eng := engine.New(0)
	items := RunBatchCtx(context.Background(), batchScript, store, eng)
	if len(items) != len(batchScript) {
		t.Fatalf("got %d items, want %d", len(items), len(batchScript))
	}
	for i, src := range batchScript {
		want, err := Run(src, store)
		if err != nil {
			t.Fatalf("serial %q: %v", src, err)
		}
		if items[i].Err != nil {
			t.Errorf("batch %q: %v", src, items[i].Err)
			continue
		}
		if fmt.Sprint(items[i].Result) != fmt.Sprint(want) {
			t.Errorf("%q:\n batch  %v\n serial %v", src, items[i].Result, want)
		}
	}
}

// TestRunBatchNilEngine: a nil engine must degrade to serial evaluation.
func TestRunBatchNilEngine(t *testing.T) {
	store := batchStore(t, 15)
	items := RunBatchCtx(context.Background(), batchScript[:3], store, nil)
	for i, src := range batchScript[:3] {
		want, err := Run(src, store)
		if err != nil {
			t.Fatal(err)
		}
		if items[i].Err != nil || fmt.Sprint(items[i].Result) != fmt.Sprint(want) {
			t.Errorf("%q: %v / %v, want %v", src, items[i].Result, items[i].Err, want)
		}
	}
}

// TestRunBatchPartialFailure: a bad statement reports its own error without
// aborting its siblings.
func TestRunBatchPartialFailure(t *testing.T) {
	store := batchStore(t, 15)
	eng := engine.New(2)
	items := RunBatchCtx(context.Background(), []string{
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0",
		"THIS IS NOT UQL",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 99999, Time) > 0",
		"SELECT T FROM MOD WHERE FORALL Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0",
	}, store, eng)
	if items[0].Err != nil {
		t.Errorf("item 0: %v", items[0].Err)
	}
	if !errors.Is(items[1].Err, ErrParse) {
		t.Errorf("item 1: got %v, want ErrParse", items[1].Err)
	}
	if !errors.Is(items[2].Err, ErrEval) {
		t.Errorf("item 2: got %v, want ErrEval", items[2].Err)
	}
	if items[3].Err != nil {
		t.Errorf("item 3: %v", items[3].Err)
	}
}

// TestRunBatchSharesProcessor: all statements over one (TrQ, window) must
// hit a single memo entry.
func TestRunBatchSharesProcessor(t *testing.T) {
	store := batchStore(t, 20)
	eng := engine.New(2)
	RunBatchCtx(context.Background(), batchScript, store, eng)
	if n := eng.MemoLen(); n != 1 {
		t.Errorf("memo len = %d, want 1 (one query trajectory and window)", n)
	}
}
