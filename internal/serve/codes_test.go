package serve

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/trajectory"
)

// codeNames lists every code in table order, internal last.
func codeNames() []string {
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = c.name
	}
	return out
}

// TestRebuildKeepsTheCode: for every row, a failure rebuilt from the code
// classifies as that code and keeps the row's first sentinel; a sentinel
// the message names survives too, and each sentinel sits in one row only.
func TestRebuildKeepsTheCode(t *testing.T) {
	seen := map[error]string{}
	for _, c := range codes {
		if got, _ := Classify(Rebuild(c.name, "peer said so")); got != c.name {
			t.Errorf("Rebuild(%q) classifies as %q", c.name, got)
		}
		for i, is := range c.is {
			if prev, dup := seen[is]; dup {
				t.Errorf("sentinel %v sits in rows %q and %q", is, prev, c.name)
			}
			seen[is] = c.name
			server := fmt.Errorf("op %d: %w", i, is)
			if got, _ := Classify(server); got != c.name {
				t.Errorf("%v classifies as %q, want %q", server, got, c.name)
			}
			back := Rebuild(c.name, server.Error())
			if !errors.Is(back, is) || !errors.Is(back, c.is[0]) || back.Error() != server.Error() {
				t.Errorf("Rebuild(%q, %q) = %v, lost %v", c.name, server, back, is)
			}
		}
	}
	if got, status := Classify(Rebuild("no_such_code", "x")); got != "internal" || status != 500 {
		t.Errorf("an unknown code rebuilds as %q/%d, want internal/500", got, status)
	}
	if names := codeNames(); !slices.Equal(names[:2], []string{"bad_kind", "bad_window"}) || names[len(names)-1] != "internal" {
		t.Errorf("code table = %v", names)
	}
}

// TestMarkKeepsMessageAndInnerIdentity: a marked failure reads as before
// and classifies under the mark, unless what it wraps has an earlier row.
func TestMarkKeepsMessageAndInnerIdentity(t *testing.T) {
	inner := fmt.Errorf("bad where: %w", engine.ErrBadPredicate)
	m := Mark(inner, ErrBadRequest)
	if m.Error() != inner.Error() || !errors.Is(m, engine.ErrBadPredicate) || !errors.Is(m, ErrBadRequest) {
		t.Fatalf("Mark = %v", m)
	}
	if code, _ := Classify(m); code != "bad_predicate" {
		t.Fatalf("marked predicate failure classifies as %q", code)
	}
	if code, status := Classify(Mark(errors.New("unknown op"), ErrBadRequest)); code != "bad_request" || status != 400 {
		t.Fatalf("marked parse failure = %q/%d", code, status)
	}
}

// TestEntryRoundTrip: a batch entry carries a result or a coded failure,
// and decodes to the same result, or to a failure of the same identity.
func TestEntryRoundTrip(t *testing.T) {
	ok := engine.Result{Kind: engine.KindUQ31, OIDs: []int64{2, 3}}
	if e := EncodeEntry(&ok); !e.OK || e.Error != nil || !slices.Equal(e.Decode("").OIDs, ok.OIDs) {
		t.Fatalf("ok entry = %+v", e)
	}
	failed := engine.Result{Kind: engine.KindUQ31, Err: fmt.Errorf("%w: 99", engine.ErrUnknownOID)}
	e := EncodeEntry(&failed)
	if e.OK || e.Result != nil || e.Error == nil || e.Error.Code != "unknown_oid" {
		t.Fatalf("failed entry = %+v", e)
	}
	if res := e.Decode(engine.KindUQ31); res.Kind != engine.KindUQ31 || !errors.Is(res.Err, engine.ErrUnknownOID) {
		t.Fatalf("decoded failure = %+v", res)
	}
	if res := (Entry{}).Decode(engine.KindUQ31); res.Err == nil {
		t.Fatal("an empty entry decodes without a failure")
	}
	// A store's refusal of an ingest item keeps its sentinel across a wire.
	for _, is := range []error{mod.ErrShortInsert, trajectory.ErrNonIncreasing} {
		we := EncodeError(fmt.Errorf("update 0 (oid 7): %w", is))
		if we.Code != "bad_request" || !errors.Is(Rebuild(we.Code, we.Message), is) {
			t.Fatalf("%v crossed as %+v", is, we)
		}
	}
}
