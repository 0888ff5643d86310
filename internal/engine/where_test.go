package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/mod"
	"repro/internal/textidx"
)

// tagFixture builds a store where tags are a deterministic function of
// the OID, so each predicate selects a known, non-trivial sub-MOD.
func tagFixture(t *testing.T, n int, seed int64) (*mod.Store, int64) {
	t.Helper()
	store, qOID := newStore(t, n, seed)
	for _, tr := range store.All() {
		var tags []string
		if tr.OID%2 == 0 {
			tags = append(tags, "available")
		}
		if tr.OID%3 == 0 {
			tags = append(tags, "ev")
		}
		if tr.OID%5 == 0 {
			tags = append(tags, "wheelchair")
		}
		if tags != nil {
			if err := store.SetTags(tr.OID, tags); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store, qOID
}

// subStore rebuilds the predicate's ground-truth universe as its own
// store: the matching trajectories plus the (exempt) query when qOID is
// non-zero, with no tags and no predicate. Sub-MOD semantics say every
// filtered request must answer byte-identically against it. The kinds
// that ignore QueryOID (ALLPAIRS, REVERSE) have no exempt query — their
// ground truth passes qOID 0.
func subStore(t *testing.T, store *mod.Store, qOID int64, where *textidx.Predicate) *mod.Store {
	t.Helper()
	sub, err := mod.NewUniformStore(store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range store.All() {
		if (qOID != 0 && tr.OID == qOID) || where.Matches(store.Tags(tr.OID)) {
			if err := sub.Insert(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sub
}

// TestDoWhereMatchesSubStore is the engine-level sub-MOD equivalence
// gate: for every kind and a matrix of ALL/ANY/NOT predicates, Do with
// Where set answers identically to Do without Where against the rebuilt
// sub-store.
func TestDoWhereMatchesSubStore(t *testing.T) {
	store, qOID := tagFixture(t, 80, 23)
	eng := New(0)
	ctx := context.Background()

	// Targets: the first matching and first non-matching non-query OIDs
	// are predicate-dependent, so pick them per predicate below.
	preds := []*textidx.Predicate{
		{All: []string{"available"}},
		{Any: []string{"ev", "wheelchair"}},
		{Not: []string{"ev"}},
		{All: []string{"available"}, Not: []string{"wheelchair"}},
		{All: []string{"available"}, Any: []string{"ev", "wheelchair"}},
	}
	for _, where := range preds {
		sub := subStore(t, store, qOID, where)
		subNoQ := subStore(t, store, 0, where)
		if n := sub.Len(); n < 5 || n >= store.Len() {
			t.Fatalf("%s: degenerate sub-MOD of %d objects", where.Key(), n)
		}
		var matchOID int64
		for _, tr := range sub.All() {
			if tr.OID != qOID {
				matchOID = tr.OID
				break
			}
		}
		reqs := []Request{
			{Kind: KindUQ11, QueryOID: qOID, Tb: 0, Te: 60, OID: matchOID},
			{Kind: KindUQ12, QueryOID: qOID, Tb: 0, Te: 60, OID: matchOID},
			{Kind: KindUQ13, QueryOID: qOID, Tb: 0, Te: 60, OID: matchOID, X: 0.25},
			{Kind: KindUQ21, QueryOID: qOID, Tb: 0, Te: 60, OID: matchOID, K: 2},
			{Kind: KindUQ22, QueryOID: qOID, Tb: 0, Te: 60, OID: matchOID, K: 2},
			{Kind: KindUQ23, QueryOID: qOID, Tb: 0, Te: 60, OID: matchOID, K: 2, X: 0.25},
			{Kind: KindNNAt, QueryOID: qOID, Tb: 0, Te: 60, OID: matchOID, T: 30},
			{Kind: KindRankAt, QueryOID: qOID, Tb: 0, Te: 60, OID: matchOID, T: 30, K: 2},
			{Kind: KindUQ13, QueryOID: qOID, Tb: 0, Te: 60, OID: matchOID, P: 0.1, X: 0.25},
			{Kind: KindNNAt, QueryOID: qOID, Tb: 0, Te: 60, OID: matchOID, T: 30, P: 1},
			{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60},
			{Kind: KindUQ32, QueryOID: qOID, Tb: 0, Te: 60},
			{Kind: KindUQ33, QueryOID: qOID, Tb: 0, Te: 60, X: 0.25},
			{Kind: KindUQ41, QueryOID: qOID, Tb: 0, Te: 60, K: 3},
			{Kind: KindUQ42, QueryOID: qOID, Tb: 0, Te: 60, K: 2},
			{Kind: KindUQ43, QueryOID: qOID, Tb: 0, Te: 60, K: 2, X: 0.25},
			{Kind: KindAllNNAt, QueryOID: qOID, Tb: 0, Te: 60, T: 30},
			{Kind: KindAllRankAt, QueryOID: qOID, Tb: 0, Te: 60, T: 30, K: 2},
			{Kind: KindUQ33, QueryOID: qOID, Tb: 0, Te: 60, P: 0.1, X: 0.25},
			{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60, P: 1},
			{Kind: KindAllPairs, Tb: 0, Te: 60},
			{Kind: KindReverse, Tb: 0, Te: 60, OID: matchOID},
		}
		for _, req := range reqs {
			filtered := req
			filtered.Where = where
			got, err := eng.Do(ctx, store, filtered)
			if err != nil {
				t.Fatalf("%s %s: %v", where.Key(), req.Kind, err)
			}
			truth := sub
			if !req.Kind.NeedsProcessor() {
				truth = subNoQ
			}
			want, err := eng.Do(ctx, truth, req)
			if err != nil {
				t.Fatalf("%s %s ground truth: %v", where.Key(), req.Kind, err)
			}
			if got.IsBool != want.IsBool || got.Bool != want.Bool ||
				!reflect.DeepEqual(got.OIDs, want.OIDs) || !reflect.DeepEqual(got.Pairs, want.Pairs) {
				t.Errorf("%s %s: filtered %+v != sub-store %+v", where.Key(), req.Kind,
					answerOf(got), answerOf(want))
			}
			if got.Explain.SpatialCandidates < got.Explain.TextualCandidates {
				t.Errorf("%s %s: textual %d > spatial %d", where.Key(), req.Kind,
					got.Explain.TextualCandidates, got.Explain.SpatialCandidates)
			}
		}
	}
}

// answerOf projects the comparable answer out of a Result for messages.
func answerOf(r Result) map[string]any {
	return map[string]any{"isBool": r.IsBool, "bool": r.Bool, "oids": r.OIDs, "pairs": r.Pairs}
}

// TestDoWhereTargets pins the target semantics under a predicate: an
// existing non-matching target answers false (or empty, for reverse)
// without error; an absent target is still ErrUnknownOID.
func TestDoWhereTargets(t *testing.T) {
	store, qOID := tagFixture(t, 40, 29)
	eng := New(0)
	ctx := context.Background()
	where := &textidx.Predicate{All: []string{"available"}}
	var nonMatch int64
	for _, tr := range store.All() {
		if tr.OID != qOID && !where.Matches(store.Tags(tr.OID)) {
			nonMatch = tr.OID
			break
		}
	}
	if nonMatch == 0 {
		t.Fatal("fixture has no non-matching object")
	}
	for _, req := range []Request{
		{Kind: KindUQ11}, {Kind: KindUQ12}, {Kind: KindUQ21, K: 2}, {Kind: KindNNAt, T: 30},
		{Kind: KindUQ13, X: 0.5, P: 0.5}, {Kind: KindNNAt, T: 30, P: 1},
	} {
		req.QueryOID, req.Tb, req.Te, req.OID, req.Where = qOID, 0, 60, nonMatch, where
		res, err := eng.Do(ctx, store, req)
		if err != nil {
			t.Fatalf("%s p=%g non-matching target: %v", req.Kind, req.P, err)
		}
		if !res.IsBool || res.Bool {
			t.Errorf("%s p=%g non-matching target: got %+v, want false", req.Kind, req.P, answerOf(res))
		}
	}
	res, err := eng.Do(ctx, store, Request{Kind: KindReverse, Tb: 0, Te: 60, OID: nonMatch, Where: where})
	if err != nil {
		t.Fatalf("reverse non-matching target: %v", err)
	}
	if len(res.OIDs) != 0 {
		t.Errorf("reverse non-matching target: got %v, want empty", res.OIDs)
	}
	for _, kind := range []Kind{KindUQ11, KindReverse} {
		req := Request{Kind: kind, QueryOID: qOID, Tb: 0, Te: 60, OID: 1 << 40, Where: where}
		if _, err := eng.Do(ctx, store, req); !errors.Is(err, ErrUnknownOID) {
			t.Errorf("%s absent target: err=%v, want ErrUnknownOID", kind, err)
		}
	}
	// A malformed predicate dies in Validate with the shared sentinel.
	bad := Request{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60, Where: &textidx.Predicate{}}
	if err := bad.Validate(); !errors.Is(err, ErrBadPredicate) {
		t.Errorf("empty predicate: err=%v, want ErrBadPredicate", err)
	}
	if _, err := eng.Do(ctx, store, Request{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60,
		Where: &textidx.Predicate{All: []string{"bad tag"}}}); err == nil {
		t.Error("bad tag in predicate accepted by Do")
	}
}

// TestDoWhereFullScanAgrees: the FullScan escape hatch must apply the
// predicate too — the index pre-pass is an accelerator, the filter is
// semantics.
func TestDoWhereFullScanAgrees(t *testing.T) {
	store, qOID := tagFixture(t, 40, 31)
	ctx := context.Background()
	where := &textidx.Predicate{Any: []string{"ev", "wheelchair"}}
	pruned := New(0)
	full := NewWith(Options{FullScan: true})
	for _, req := range []Request{
		{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60, Where: where},
		{Kind: KindUQ41, QueryOID: qOID, Tb: 0, Te: 60, K: 2, Where: where},
		{Kind: KindUQ33, QueryOID: qOID, Tb: 0, Te: 60, P: 0.1, X: 0.25, Where: where},
		{Kind: KindUQ32, QueryOID: qOID, Tb: 0, Te: 60, P: 1, Where: where},
	} {
		a, err := pruned.Do(ctx, store, req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := full.Do(ctx, store, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.OIDs, b.OIDs) {
			t.Errorf("%s: pruned %v != fullscan %v", req.Kind, a.OIDs, b.OIDs)
		}
	}
}
