package continuous

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/trajectory"
)

// denseLine builds a trajectory moving along x = t at height y over
// [0, 10], one vertex per time unit — dense enough that a mid-plan
// revision at time T only rewrites motion from T-1 on.
func denseLine(t *testing.T, oid int64, y float64) *trajectory.Trajectory {
	t.Helper()
	verts := make([]trajectory.Vertex, 11)
	for i := range verts {
		verts[i] = trajectory.Vertex{X: float64(i), Y: y, T: float64(i)}
	}
	tr, err := trajectory.New(oid, verts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// liveScene: query object 1 crossing the plane, object 2 shadowing it
// closely (the NN), objects 3 and 4 far away. Every plan covers [0, 10].
func liveScene(t *testing.T) *mod.Store {
	t.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for oid, y := range map[int64]float64{1: 0, 2: 1, 3: 50, 4: 100} {
		if err := st.Insert(denseLine(t, oid, y)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// revision builds an update revising oid's plan with the (x, y, t)
// triples.
func revision(oid int64, pts ...[3]float64) mod.Update {
	u := mod.Update{OID: oid}
	for _, p := range pts {
		u.Verts = append(u.Verts, trajectory.Vertex{X: p[0], Y: p[1], T: p[2]})
	}
	return u
}

func mustSubscribe(t *testing.T, h *Hub, req engine.Request) (int64, engine.Result) {
	t.Helper()
	id, res, err := h.Subscribe(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return id, res
}

// checkFresh asserts the hub's current answer equals a fresh engine run.
func checkFresh(t *testing.T, h *Hub, st *mod.Store, id int64, req engine.Request) {
	t.Helper()
	got, err := h.Answer(id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(1).Do(context.Background(), st, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.IsBool != want.IsBool || got.Bool != want.Bool || !reflect.DeepEqual(got.OIDs, want.OIDs) {
		t.Fatalf("sub %d stale: hub %+v, fresh %+v", id, got, want)
	}
}

func TestSubscribeIngestDiff(t *testing.T) {
	st := liveScene(t)
	h := NewEngineHub(st, engine.New(1))
	ctx := context.Background()

	uq31 := engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10}
	uq11 := engine.Request{Kind: engine.KindUQ11, QueryOID: 1, Tb: 0, Te: 10, OID: 3}
	id31, res31 := mustSubscribe(t, h, uq31)
	id11, res11 := mustSubscribe(t, h, uq11)
	if !reflect.DeepEqual(res31.OIDs, []int64{2}) {
		t.Fatalf("initial UQ31 = %v, want [2]", res31.OIDs)
	}
	if res11.Bool {
		t.Fatal("object 3 should not be a possible NN initially")
	}

	// Steer object 3 right next to the query during [6, 10]: both
	// subscriptions flip.
	_, events, err := h.Ingest(ctx, []mod.Update{
		revision(3, [3]float64{6, 1, 6}, [3]float64{8, 0.5, 8}, [3]float64{10, 0.5, 10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("want 2 events, got %+v", events)
	}
	byID := map[int64]Event{}
	for _, ev := range events {
		byID[ev.SubID] = ev
	}
	if ev := byID[id31]; !reflect.DeepEqual(ev.Added, []int64{3}) || len(ev.Removed) != 0 ||
		!reflect.DeepEqual(ev.OIDs, []int64{2, 3}) || ev.Seq != 1 || ev.Kind != engine.KindUQ31 {
		t.Fatalf("UQ31 event = %+v", ev)
	}
	if ev := byID[id11]; !ev.IsBool || !ev.Bool {
		t.Fatalf("UQ11 event = %+v", ev)
	}
	checkFresh(t, h, st, id31, uq31)
	checkFresh(t, h, st, id11, uq11)

	// Revise it away from t=5 on (before it ever got close): removal.
	_, events, err = h.Ingest(ctx, []mod.Update{
		revision(3, [3]float64{6, 80, 5.5}, [3]float64{10, 80, 10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("want 2 events, got %+v", events)
	}
	for _, ev := range events {
		if ev.SubID == id31 {
			if !reflect.DeepEqual(ev.Removed, []int64{3}) || !reflect.DeepEqual(ev.OIDs, []int64{2}) || ev.Seq != 2 {
				t.Fatalf("UQ31 removal event = %+v", ev)
			}
		}
		if ev.SubID == id11 && (!ev.IsBool || ev.Bool) {
			t.Fatalf("UQ11 flip-back event = %+v", ev)
		}
	}
	checkFresh(t, h, st, id31, uq31)
	checkFresh(t, h, st, id11, uq11)

	// A no-op-shaped revision (same far path) on a superset outsider:
	// no events, no re-evaluation recorded beyond the previous ones.
	evalsBefore := h.Stats().Evals
	_, events, err = h.Ingest(ctx, []mod.Update{
		revision(4, [3]float64{8, 100, 8}, [3]float64{10, 100, 10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("irrelevant revision emitted %+v", events)
	}
	if h.Stats().Evals != evalsBefore {
		t.Fatalf("irrelevant revision re-evaluated: %+v", h.Stats())
	}
}

func TestDirtySetSkipsIrrelevantUpdates(t *testing.T) {
	st := liveScene(t)
	h := NewEngineHub(st, engine.New(1))
	ctx := context.Background()

	past := engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 4}
	live := engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10}
	idPast, _ := mustSubscribe(t, h, past)
	idLive, _ := mustSubscribe(t, h, live)

	// Far-away revisions: both subscriptions skip (the past window because
	// the change is after its end, the live one geometrically).
	if _, _, err := h.Ingest(ctx, []mod.Update{
		revision(4, [3]float64{7, 99, 7}, [3]float64{10, 99, 10}),
		revision(3, [3]float64{7, 51, 7}, [3]float64{10, 51, 10}),
	}); err != nil {
		t.Fatal(err)
	}
	if s := h.Stats(); s.Evals != 0 || s.Skips != 2 {
		t.Fatalf("far revisions: stats = %+v, want 0 evals / 2 skips", s)
	}

	// A superset member's revision inside the live window: the live
	// subscription re-evaluates, the past one (change after its end) does
	// not.
	if _, _, err := h.Ingest(ctx, []mod.Update{
		revision(2, [3]float64{7, 1.2, 7}, [3]float64{10, 1.2, 10}),
	}); err != nil {
		t.Fatal(err)
	}
	s := h.Stats()
	if s.Evals != 1 || s.Skips != 3 {
		t.Fatalf("superset revision: stats = %+v, want 1 eval / 3 skips", s)
	}

	// The query object dirties every window its change overlaps — and
	// only those.
	if _, _, err := h.Ingest(ctx, []mod.Update{
		revision(1, [3]float64{7, 0.2, 7}, [3]float64{10, 0.2, 10}),
	}); err != nil {
		t.Fatal(err)
	}
	if s := h.Stats(); s.Evals != 2 || s.Skips != 4 {
		t.Fatalf("query revision: stats = %+v, want 2 evals / 4 skips", s)
	}
	checkFresh(t, h, st, idPast, past)
	checkFresh(t, h, st, idLive, live)
}

func TestInsertedObjectTriggersOnlyNearbySubs(t *testing.T) {
	st := liveScene(t)
	h := NewEngineHub(st, engine.New(1))
	ctx := context.Background()

	req := engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10}
	id, _ := mustSubscribe(t, h, req)

	// A new object far away: applied, but no re-evaluation.
	if _, _, err := h.Ingest(ctx, []mod.Update{{OID: 9, Verts: []trajectory.Vertex{
		{X: 0, Y: 200, T: 0}, {X: 10, Y: 200, T: 10},
	}}}); err != nil {
		t.Fatal(err)
	}
	if s := h.Stats(); s.Evals != 0 || s.Skips != 1 {
		t.Fatalf("far insert: stats = %+v", s)
	}

	// A new object right on top of the query: event with the addition.
	_, events, err := h.Ingest(ctx, []mod.Update{{OID: 10, Verts: []trajectory.Vertex{
		{X: 0, Y: 0.5, T: 0}, {X: 10, Y: 0.5, T: 10},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !reflect.DeepEqual(events[0].Added, []int64{10}) {
		t.Fatalf("near insert events = %+v", events)
	}
	checkFresh(t, h, st, id, req)
}

func TestUnprofiledKindsAlwaysReevaluate(t *testing.T) {
	st := liveScene(t)
	h := NewEngineHub(st, engine.New(1))
	ctx := context.Background()

	_, _ = mustSubscribe(t, h, engine.Request{Kind: engine.KindReverse, OID: 2, Tb: 0, Te: 10})
	if _, _, err := h.Ingest(ctx, []mod.Update{
		revision(4, [3]float64{7, 99, 7}, [3]float64{10, 99, 10}),
	}); err != nil {
		t.Fatal(err)
	}
	if s := h.Stats(); s.Evals != 1 || s.Skips != 0 {
		t.Fatalf("reverse kind: stats = %+v, want an eval on every ingest", s)
	}
}

func TestHubAdministrivia(t *testing.T) {
	st := liveScene(t)
	h := NewEngineHub(st, nil)
	ctx := context.Background()

	// Bad requests are rejected.
	if _, _, err := h.Subscribe(ctx, engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 5, Te: 5}); !errors.Is(err, engine.ErrBadWindow) {
		t.Fatalf("bad window err = %v", err)
	}
	if _, _, err := h.Subscribe(ctx, engine.Request{Kind: engine.KindUQ31, QueryOID: 77, Tb: 0, Te: 10}); !errors.Is(err, mod.ErrNotFound) {
		t.Fatalf("unknown query err = %v", err)
	}

	id, _ := mustSubscribe(t, h, engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10})
	if _, err := h.Answer(id); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Answer(id + 5); !errors.Is(err, ErrNoSub) {
		t.Fatalf("Answer on unknown id err = %v", err)
	}
	if !h.Unsubscribe(id) || h.Unsubscribe(id) {
		t.Fatal("Unsubscribe bookkeeping broken")
	}
	if _, err := h.Answer(id); !errors.Is(err, ErrNoSub) {
		t.Fatalf("Answer after Unsubscribe err = %v", err)
	}

	// Ingest errors invalidate profiles and surface the error.
	if _, _, err := h.Subscribe(ctx, engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Ingest(ctx, []mod.Update{{OID: 55, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: 1}}}}); !errors.Is(err, mod.ErrShortInsert) {
		t.Fatalf("bad ingest err = %v", err)
	}
	// The next (harmless) ingest re-evaluates because the profile is gone.
	if _, _, err := h.Ingest(ctx, []mod.Update{
		revision(4, [3]float64{7, 99, 7}, [3]float64{10, 99, 10}),
	}); err != nil {
		t.Fatal(err)
	}
	if s := h.Stats(); s.Evals != 1 {
		t.Fatalf("post-error ingest: stats = %+v, want a forced eval", s)
	}

	h.Close()
	if _, _, err := h.Ingest(ctx, nil); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("closed hub ingest err = %v", err)
	}
	if _, _, err := h.Subscribe(ctx, engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10}); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("closed hub subscribe err = %v", err)
	}
}

func TestInfluenceWidth(t *testing.T) {
	if got := influenceWidth(0.5); math.Abs(got-3.000001) > 1e-9 {
		t.Fatalf("influenceWidth(0.5) = %g", got)
	}
}
