package continuous

// Tag flips and the dirty test: a pure retag carries ChangedFrom = +Inf
// (no motion changed), so the window skip would discard it — the flip
// branch must catch predicate-boundary crossings first, and only those a
// filtered subscription can feel: joins inside the influence zone, leaves
// from inside the superset, and query/target flips. Everything else must
// be skipped, and every emitted answer must match a fresh filtered run.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/textidx"
)

// retag builds a pure tag flip (no motion change).
func retag(oid int64, tags ...string) mod.Update {
	return mod.Update{OID: oid, Tags: &tags}
}

func TestTagFlipDirtyRule(t *testing.T) {
	st := liveScene(t) // query 1 at y=0; 2 near (y=1); 3, 4 far
	if err := st.SetTags(3, []string{"ev"}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetTags(4, []string{"ev"}); err != nil {
		t.Fatal(err)
	}
	h := NewEngineHub(st, engine.New(1))
	ctx := context.Background()
	ev := &textidx.Predicate{All: []string{"ev"}}

	f31 := engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10, Where: ev}
	f11 := engine.Request{Kind: engine.KindUQ11, QueryOID: 1, Tb: 0, Te: 10, OID: 2, Where: ev}
	u31 := engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10}
	idF31, resF31 := mustSubscribe(t, h, f31)
	idF11, resF11 := mustSubscribe(t, h, f11)
	idU31, _ := mustSubscribe(t, h, u31)
	if !reflect.DeepEqual(resF31.OIDs, []int64{3}) {
		t.Fatalf("initial filtered UQ31 = %v, want [3] (NN of the EV sub-MOD)", resF31.OIDs)
	}
	if !resF11.IsBool || resF11.Bool {
		t.Fatalf("initial filtered UQ11 = %+v, want false (target 2 not an EV)", resF11)
	}

	fresh := func() {
		t.Helper()
		checkFresh(t, h, st, idF31, f31)
		checkFresh(t, h, st, idF11, f11)
		checkFresh(t, h, st, idU31, u31)
	}
	ingest := func(u mod.Update, wantEvals, wantSkips uint64) []Event {
		t.Helper()
		before := h.Stats()
		_, events, err := h.Ingest(ctx, []mod.Update{u})
		if err != nil {
			t.Fatal(err)
		}
		after := h.Stats()
		if after.Evals-before.Evals != wantEvals || after.Skips-before.Skips != wantSkips {
			t.Fatalf("evals/skips = %d/%d, want %d/%d",
				after.Evals-before.Evals, after.Skips-before.Skips, wantEvals, wantSkips)
		}
		fresh()
		return events
	}

	// Near object 2 becomes an EV: it joins both filtered sub-MODs inside
	// the zone (and is f11's target). The unfiltered sub must skip the
	// pure flip.
	events := ingest(retag(2, "ev"), 2, 1)
	if len(events) != 2 {
		t.Fatalf("join flip: want 2 events, got %+v", events)
	}
	for _, e := range events {
		switch e.SubID {
		case idF31:
			if !reflect.DeepEqual(e.Added, []int64{2}) || !reflect.DeepEqual(e.Removed, []int64{3}) ||
				!reflect.DeepEqual(e.OIDs, []int64{2}) {
				t.Fatalf("filtered UQ31 join event = %+v", e)
			}
		case idF11:
			if !e.IsBool || !e.Bool {
				t.Fatalf("filtered UQ11 join event = %+v", e)
			}
		default:
			t.Fatalf("unexpected event %+v", e)
		}
	}

	// Far object 3 leaves the sub-MOD from outside every superset: its
	// removal cannot move any envelope — all three subs skip, no events.
	if events := ingest(retag(3), 0, 3); len(events) != 0 {
		t.Fatalf("far leave flip emitted %+v", events)
	}

	// A brand-new far object appears untagged, then becomes an EV: the
	// insert is spatially irrelevant and the join flip fails the whole-
	// plan zone test — skips both times.
	ins := revision(5, [3]float64{0, 200, 0}, [3]float64{10, 200, 10})
	if events := ingest(ins, 0, 3); len(events) != 0 {
		t.Fatalf("far insert emitted %+v", events)
	}
	if events := ingest(retag(5, "ev"), 0, 3); len(events) != 0 {
		t.Fatalf("far join flip emitted %+v", events)
	}

	// A flip that never crosses the predicate boundary is invisible even
	// on a near object: object 2 stays an EV, just gains another tag.
	if events := ingest(retag(2, "ev", "wheelchair"), 0, 3); len(events) != 0 {
		t.Fatalf("non-crossing flip emitted %+v", events)
	}

	// Object 2 loses the tag: it leaves from inside f31's superset and is
	// f11's target — both filtered subs re-evaluate and flip back.
	events = ingest(retag(2, "wheelchair"), 2, 1)
	if len(events) != 2 {
		t.Fatalf("leave flip: want 2 events, got %+v", events)
	}
	for _, e := range events {
		switch e.SubID {
		case idF31:
			// The sub-MOD is now {4, 5}; 4 takes over as the relative NN.
			if !reflect.DeepEqual(e.Removed, []int64{2}) || !reflect.DeepEqual(e.Added, []int64{4}) ||
				!reflect.DeepEqual(e.OIDs, []int64{4}) {
				t.Fatalf("filtered UQ31 leave event = %+v", e)
			}
		case idF11:
			if !e.IsBool || e.Bool {
				t.Fatalf("filtered UQ11 leave event = %+v", e)
			}
		default:
			t.Fatalf("unexpected event %+v", e)
		}
	}
}

// TestNonCanonicalPredicateStaysFresh: a subscription is kept in its
// normalized form, so a predicate written in another case or with
// padding feels a join flip exactly like its canonical spelling.
func TestNonCanonicalPredicateStaysFresh(t *testing.T) {
	st := liveScene(t) // query 1 at y=0; 2 near (y=1); 3, 4 far
	for _, oid := range []int64{3, 4} {
		if err := st.SetTags(oid, []string{"ev"}); err != nil {
			t.Fatal(err)
		}
	}
	h := NewEngineHub(st, engine.New(1))
	var reqs []engine.Request
	for _, tag := range []string{"EV", " ev"} {
		req := engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10, Where: &textidx.Predicate{All: []string{tag}}}
		if _, res := mustSubscribe(t, h, req); !reflect.DeepEqual(res.OIDs, []int64{3}) {
			t.Fatalf("%q: initial UQ31 = %v, want [3]", tag, res.OIDs)
		}
		reqs = append(reqs, req)
	}
	_, events, err := h.Ingest(context.Background(), []mod.Update{retag(2, "ev")})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(reqs) {
		t.Fatalf("join flip: %d events, want one per subscription: %+v", len(events), events)
	}
	for i, req := range reqs {
		e := events[i]
		if e.SubID != int64(i+1) || !reflect.DeepEqual(e.Added, []int64{2}) || !reflect.DeepEqual(e.Removed, []int64{3}) {
			t.Fatalf("%+v: join event = %+v", req.Where, e)
		}
		checkFresh(t, h, st, e.SubID, req)
	}
}
