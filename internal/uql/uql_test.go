package uql

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/queries"
	"repro/internal/workload"
)

// answer is a statement's outcome without its provenance.
type answer struct {
	IsBool bool
	Bool   bool
	OIDs   []int64
}

// runOn parses src, compiles it and answers it on eng.
func runOn(eng *engine.Engine, src string, store *mod.Store) (answer, error) {
	st, err := Parse(src)
	if err != nil {
		return answer{}, err
	}
	res, err := eng.Do(context.Background(), store, Compile(st))
	return answer{IsBool: res.IsBool, Bool: res.Bool, OIDs: res.OIDs}, err
}

// run answers src on a fresh serial engine.
func run(src string, store *mod.Store) (answer, error) {
	return runOn(engine.New(1), src, store)
}

func TestParseValid(t *testing.T) {
	cases := []struct {
		src  string
		want Stmt
	}{
		{
			"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 5, Time) > 0",
			Stmt{AllObjects: true, Quant: QuantExists, Tb: 0, Te: 60, QueryOID: 5},
		},
		{
			"select t from mod where forall time in [1.5, 2.5] and probabilitynn(t, 7, time) > 0",
			Stmt{AllObjects: true, Quant: QuantForAll, Tb: 1.5, Te: 2.5, QueryOID: 7},
		},
		{
			"SELECT 3 FROM MOD WHERE ATLEAST 50% Time IN [0, 60] AND ProbabilityNN(3, 9, Time) > 0",
			Stmt{TargetOID: 3, Quant: QuantAtLeast, Percent: 0.5, Tb: 0, Te: 60, QueryOID: 9},
		},
		{
			"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityKNN(T, 5, Time, 2) > 0",
			Stmt{AllObjects: true, Quant: QuantExists, Tb: 0, Te: 60, QueryOID: 5, Rank: 2},
		},
		{
			"SELECT 4 FROM MOD WHERE AT Time = 30 WITHIN [0, 60] AND ProbabilityNN(4, 1, Time) > 0",
			Stmt{TargetOID: 4, Quant: QuantAt, FixedT: 30, Tb: 0, Te: 60, QueryOID: 1},
		},
	}
	for _, c := range cases {
		got, err := Parse(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if !reflect.DeepEqual(*got, c.want) {
			t.Errorf("%q:\n got  %+v\n want %+v", c.src, *got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT T",
		"SELECT T FROM MOD",
		"SELECT T FROM TABLE WHERE EXISTS Time IN [0,1] AND ProbabilityNN(T, 1, Time) > 0",
		"SELECT T FROM MOD WHERE MAYBE Time IN [0,1] AND ProbabilityNN(T, 1, Time) > 0",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0,1] AND ProbabilityNN(5, 1, Time) > 0",       // target mismatch
		"SELECT 5 FROM MOD WHERE EXISTS Time IN [0,1] AND ProbabilityNN(T, 1, Time) > 0",       // target mismatch
		"SELECT T FROM MOD WHERE EXISTS Time IN [1,1] AND ProbabilityNN(T, 1, Time) > 0",       // empty window
		"SELECT T FROM MOD WHERE EXISTS Time IN [0,1] AND ProbabilityNN(T, 1, Time) > 1",       // threshold >= 1
		"SELECT T FROM MOD WHERE EXISTS Time IN [0,1] AND ProbabilityKNN(T, 1, Time, 2) > 0.5", // ranked threshold
		"SELECT T FROM MOD WHERE EXISTS Time IN [0,1] AND CertainNN(T, 1, Time) > 0.5",         // certain threshold
		"SELECT T FROM MOD WHERE ATLEAST 150% Time IN [0,1] AND ProbabilityNN(T, 1, Time) > 0",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0,1] AND ProbabilityKNN(T, 1, Time, 0) > 0", // k=0
		"SELECT T FROM MOD WHERE AT Time = 5 WITHIN [0,1] AND ProbabilityNN(T, 1, Time) > 0", // tf outside
		"SELECT T FROM MOD WHERE EXISTS Time IN [0,1] AND ProbabilityNN(T, 1, Time) > 0 garbage",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0,1] AND ProbabilityNN(T, 1.5, Time) > 0", // non-integer oid
		"SELECT T FROM MOD WHERE EXISTS Time IN (0,1) AND ProbabilityNN(T, 1, Time) > 0",   // wrong brackets
		"SELECT T FROM MOD WHERE EXISTS Time IN [0,1] @ ProbabilityNN(T, 1, Time) > 0",     // bad rune
	}
	for _, src := range cases {
		if _, err := Parse(src); !errors.Is(err, ErrParse) {
			t.Errorf("%q: err = %v, want ErrParse", src, err)
		}
	}
}

// TestParseStringRoundTrip: Parse(stmt.String()) == stmt.
func TestParseStringRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 5, Time) > 0",
		"SELECT 3 FROM MOD WHERE ATLEAST 25% Time IN [10, 50] AND ProbabilityKNN(3, 9, Time, 4) > 0",
		"SELECT 4 FROM MOD WHERE AT Time = 30 WITHIN [0, 60] AND ProbabilityNN(4, 1, Time) > 0",
		"SELECT T FROM MOD WHERE FORALL Time IN [0, 60] AND ProbabilityKNN(T, 2, Time, 2) > 0",
	}
	for _, src := range srcs {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		st2, err := Parse(st.String())
		if err != nil {
			t.Fatalf("round trip of %q (%q): %v", src, st.String(), err)
		}
		if !reflect.DeepEqual(st, st2) {
			t.Errorf("round trip changed: %+v vs %+v", st, st2)
		}
	}
}

func testStore(t *testing.T) *mod.Store {
	t.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := workload.Generate(workload.DefaultConfig(7), 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEvalMatchesProcessor: UQL evaluation equals direct Processor calls.
func TestEvalMatchesProcessor(t *testing.T) {
	store := testStore(t)
	q, err := store.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}

	res, err := run("SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0", store)
	if err != nil {
		t.Fatal(err)
	}
	if res.IsBool {
		t.Fatal("expected OID list")
	}
	if want := proc.UQ31(); !reflect.DeepEqual(res.OIDs, want) {
		t.Errorf("UQ31 via UQL = %v, want %v", res.OIDs, want)
	}

	res, err = run("SELECT T FROM MOD WHERE ATLEAST 50% Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0", store)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := proc.UQ43(1, 0.5); !reflect.DeepEqual(res.OIDs, want) {
		t.Errorf("UQ33 via UQL = %v, want %v", res.OIDs, want)
	}

	res, err = run("SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityKNN(T, 1, Time, 2) > 0", store)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := proc.UQ41(2); !reflect.DeepEqual(res.OIDs, want) {
		t.Errorf("UQ41 via UQL = %v, want %v", res.OIDs, want)
	}

	// Single-object forms.
	target := proc.UQ31()[0]
	src := "SELECT " + itoa(target) + " FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(" + itoa(target) + ", 1, Time) > 0"
	res, err = run(src, store)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsBool || !res.Bool {
		t.Errorf("single-object existential = %+v", res)
	}
	// Fixed time.
	res, err = run("SELECT T FROM MOD WHERE AT Time = 30 WITHIN [0, 60] AND ProbabilityNN(T, 1, Time) > 0", store)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := proc.PossibleRankKAt(30, 1); !reflect.DeepEqual(res.OIDs, want) {
		t.Errorf("fixed-time via UQL = %v, want %v", res.OIDs, want)
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// TestEvalErrors: a compiled statement fails with the engine's typed
// errors, and a syntax error with ErrParse.
func TestEvalErrors(t *testing.T) {
	store := testStore(t)
	cases := []struct {
		src  string
		want error
	}{
		{"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 999, Time) > 0", mod.ErrNotFound},
		{"SELECT 999 FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(999, 1, Time) > 0", engine.ErrUnknownOID},
		{"SELECT 999 FROM MOD WHERE EXISTS Time IN [0, 60] AND CertainNN(999, 1, Time) > 0", engine.ErrUnknownOID},
		{"garbage", ErrParse},
	}
	for _, c := range cases {
		if _, err := run(c.src, store); !errors.Is(err, c.want) {
			t.Errorf("%q: err=%v, want %v", c.src, err, c.want)
		}
	}
	// A window outside every trajectory's span fails too.
	if _, err := run("SELECT T FROM MOD WHERE EXISTS Time IN [100, 200] AND ProbabilityNN(T, 1, Time) > 0", store); err == nil {
		t.Error("window outside the spans: no error")
	}
}

func TestEvalSingleObjectRanked(t *testing.T) {
	store := testStore(t)
	q, _ := store.Get(1)
	proc, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := proc.UQ41(3)
	if err != nil {
		t.Fatal(err)
	}
	target := ids[len(ids)-1]
	src := "SELECT " + itoa(target) + " FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityKNN(" + itoa(target) + ", 1, Time, 3) > 0"
	res, err := run(src, store)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsBool || !res.Bool {
		t.Errorf("ranked single-object = %+v", res)
	}
	// AT-time ranked variant parses and evaluates.
	src = "SELECT " + itoa(target) + " FROM MOD WHERE AT Time = 30 WITHIN [0, 60] AND ProbabilityKNN(" + itoa(target) + ", 1, Time, 3) > 0"
	if _, err := run(src, store); err != nil {
		t.Errorf("AT ranked: %v", err)
	}
}

func TestParseThresholdAndCertain(t *testing.T) {
	st, err := Parse("SELECT 3 FROM MOD WHERE ATLEAST 50% Time IN [0, 60] AND ProbabilityNN(3, 1, Time) > 0.65")
	if err != nil {
		t.Fatal(err)
	}
	if st.Threshold != 0.65 || st.Certain {
		t.Fatalf("stmt = %+v", st)
	}
	st2, err := Parse(st.String())
	if err != nil {
		t.Fatalf("round trip %q: %v", st.String(), err)
	}
	if *st2 != *st {
		t.Fatalf("round trip changed: %+v vs %+v", st, st2)
	}
	st, err = Parse("SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND CertainNN(T, 1, Time) > 0")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Certain || st.Threshold != 0 {
		t.Fatalf("certain stmt = %+v", st)
	}
	if _, err := Parse(st.String()); err != nil {
		t.Fatalf("certain round trip: %v", err)
	}
}

// TestEvalThresholdAndCertain checks the new predicate semantics against
// the queries-package primitives.
func TestEvalThresholdAndCertain(t *testing.T) {
	store := batchStore(t, 12)
	q, err := store.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	// Threshold retrieve-all: must equal ThresholdNNAll at the same
	// fraction (ATLEAST 10%).
	res, err := run("SELECT T FROM MOD WHERE ATLEAST 10% Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0.5", store)
	if err != nil {
		t.Fatal(err)
	}
	table, err := proc.ProbabilityTable(context.Background(), queries.ThresholdConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := table.ThresholdNNAll(0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.OIDs, want) {
		t.Errorf("threshold via UQL = %v, want %v", res.OIDs, want)
	}
	// Certain retrieve-all: every returned object has a nonempty
	// guaranteed interval set.
	res, err = run("SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND CertainNN(T, 1, Time) > 0", store)
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range res.OIDs {
		ivs, err := proc.GuaranteedNNIntervals(oid)
		if err != nil || len(ivs) == 0 {
			t.Errorf("certain oid %d has no guaranteed intervals (%v)", oid, err)
		}
	}
	// Guaranteed implies possible: certain set is a subset of UQ31.
	possible := map[int64]bool{}
	for _, id := range proc.UQ31() {
		possible[id] = true
	}
	for _, id := range res.OIDs {
		if !possible[id] {
			t.Errorf("certain oid %d not in possible set", id)
		}
	}
	// Single-object certain at a fixed time.
	if len(res.OIDs) > 0 {
		target := res.OIDs[0]
		ivs, _ := proc.GuaranteedNNIntervals(target)
		mid := 0.5 * (ivs[0].T0 + ivs[0].T1)
		src := fmt.Sprintf("SELECT %d FROM MOD WHERE AT Time = %g WITHIN [0, 60] AND CertainNN(%d, 1, Time) > 0",
			target, mid, target)
		r2, err := run(src, store)
		if err != nil {
			t.Fatal(err)
		}
		if !r2.IsBool || !r2.Bool {
			t.Errorf("fixed-time certain = %+v", r2)
		}
	}
}
