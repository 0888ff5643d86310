package serve

// Core-level tests for what no codec exposes the same way on both sides:
// the wire shape's Inf markers, Unsubscribe ownership, Insert and a
// severing sink. Everything a client can observe on both front doors is in
// conformance_test.go.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/trajectory"
)

// chanSink buffers delivered events; once fail is set it rejects them.
type chanSink struct {
	got  []continuous.Event
	fail bool
}

func (s *chanSink) Deliver(ev continuous.Event) error {
	if s.fail {
		return errors.New("stalled")
	}
	s.got = append(s.got, ev)
	return nil
}

func line(oid int64, y float64) *trajectory.Trajectory {
	tr, err := trajectory.New(oid, []trajectory.Vertex{{X: 0, Y: y, T: 0}, {X: 10, Y: y, T: 10}})
	if err != nil {
		panic(err)
	}
	return tr
}

// newCore serves a three-object scene: 1 is the query, 2 its neighbour, 3
// far away.
func newCore(t *testing.T) (*Core, *mod.Store) {
	t.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InsertAll([]*trajectory.Trajectory{line(1, 0), line(2, 1), line(3, 50)}); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(1)
	return New(continuous.NewEngineHub(st, eng), st, nil), st
}

var nnReq = engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10}

// plan is object oid on y for t in [0, 10], one vertex per time unit.
func plan(oid int64, y float64) *trajectory.Trajectory {
	verts := make([]trajectory.Vertex, 11)
	for i := range verts {
		verts[i] = trajectory.Vertex{X: float64(i), Y: y, T: float64(i)}
	}
	return &trajectory.Trajectory{OID: oid, Verts: verts}
}

// TestWireAppliedRoundTrip: the outcomes of a real batch — a revision, an
// extension, an insert, a tag flip, a retirement and a tagged revision —
// cross the shard link carrying only the plans the router cannot rebuild,
// and decode against their updates to the store's own outcomes, plans
// equal bit for bit.
func TestWireAppliedRoundTrip(t *testing.T) {
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InsertAll([]*trajectory.Trajectory{plan(1, 0), plan(2, 1), plan(3, 2), plan(4, 3), plan(5, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetTags(5, []string{"old"}); err != nil {
		t.Fatal(err)
	}
	tags := []string{"ev"}
	updates := []mod.Update{
		{OID: 2, Verts: []trajectory.Vertex{{X: 5, Y: 1.5, T: 4.5}, {X: 1.0 / 3, Y: 2, T: 10}}},
		{OID: 3, Verts: []trajectory.Vertex{{X: 11, Y: -0.1, T: 12}}},
		{OID: 9, Verts: []trajectory.Vertex{{X: 0, Y: 0.5, T: 0}, {X: 10, Y: 0.5, T: 10}}, Tags: &tags},
		{OID: 4, Tags: &tags},
		{OID: 5, Retire: true},
		{OID: 1, Verts: []trajectory.Vertex{{X: 6.5, Y: 0.2, T: 6.5}, {X: 10, Y: 0.3, T: 10}}, Tags: &tags},
	}
	applied, err := st.ApplyUpdates(updates)
	if err != nil {
		t.Fatal(err)
	}
	wire := EncodeApplied(applied)
	// Which plan each outcome carries: the superseded one of a revision,
	// an extension or a retirement, the standing one of a flip, none for
	// an insert.
	carries := []struct{ vb, pvb bool }{{false, true}, {false, true}, {false, false}, {true, false}, {false, true}, {false, true}}
	for i, c := range carries {
		if (len(wire[i].VB) > 0) != c.vb || (len(wire[i].PVB) > 0) != c.pvb {
			t.Fatalf("outcome %d carries vb=%t pvb=%t, want %+v", i, len(wire[i].VB) > 0, len(wire[i].PVB) > 0, c)
		}
	}
	if wire[2].ChangedFrom != 0 || !wire[3].TagsOnly || wire[3].ChangedFrom != 0 || !wire[4].Retired || wire[0].ChangedFrom != 4 || wire[1].ChangedFrom != 10 {
		t.Fatalf("wire markers: %+v", wire)
	}
	back, err := DecodeApplied(wire, updates)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, applied) {
		t.Fatalf("round trip diverged\n got: %+v\nwant: %+v", back, applied)
	}
	for i := range back {
		for _, pair := range [][2]*trajectory.Trajectory{{back[i].Traj, applied[i].Traj}, {back[i].Prev, applied[i].Prev}} {
			if pair[0] == nil {
				continue
			}
			for k, v := range pair[0].Verts {
				w := pair[1].Verts[k]
				if math.Float64bits(v.X) != math.Float64bits(w.X) || math.Float64bits(v.Y) != math.Float64bits(w.Y) || math.Float64bits(v.T) != math.Float64bits(w.T) {
					t.Fatalf("outcome %d vertex %d: %v, want %v bit for bit", i, k, v, w)
				}
			}
		}
	}
	// An insert's plan is a copy: the caller's update vertices stay its own.
	if &back[2].Traj.Verts[0] == &updates[2].Verts[0] {
		t.Fatal("the rebuilt insert aliases its update's vertices")
	}

	// The outcomes alone are the same items with neither plan, and decode
	// without updates to the outcomes with no plan.
	outcomes := EncodeOutcomes(applied)
	for i := range wire {
		wire[i].VB, wire[i].PVB = nil, nil
	}
	if !reflect.DeepEqual(outcomes, wire) {
		t.Fatalf("outcomes diverged from the packed items\n got: %+v\nwant: %+v", outcomes, wire)
	}
	bare, err := DecodeApplied(outcomes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range bare {
		want := applied[i]
		want.Traj, want.Prev = nil, nil
		if !reflect.DeepEqual(a, want) {
			t.Fatalf("outcome %d without plans = %+v, want %+v", i, a, want)
		}
	}

	// A reply that does not fit its updates is a protocol error.
	rev := updates[:1]
	good := EncodeApplied(applied[:1])
	doctored := func(edit func(*WireApplied)) []WireApplied {
		w := append([]WireApplied(nil), good...)
		edit(&w[0])
		return w
	}
	for name, w := range map[string][]WireApplied{
		"changed_from":    doctored(func(wa *WireApplied) { wa.ChangedFrom = 3 }),
		"oid":             doctored(func(wa *WireApplied) { wa.OID = 3 }),
		"no pvb":          doctored(func(wa *WireApplied) { wa.PVB = nil }),
		"flip without vb": {{OID: 2, TagsOnly: true}},
		"extra outcome":   append(good, good...),
	} {
		if _, err := DecodeApplied(w, rev); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s: err = %v, want ErrProtocol", name, err)
		}
	}
	if _, err := DecodeApplied([]WireApplied{{OID: 1, Inserted: true}}, []mod.Update{{OID: 1, Verts: plan(1, 0).Verts[:1]}}); !errors.Is(err, trajectory.ErrTooFewVertices) {
		t.Fatalf("one-vertex insert: err = %v, want ErrTooFewVertices", err)
	}
	if _, err := DecodeApplied(doctored(func(wa *WireApplied) { wa.PVB = wa.PVB[:47] }), rev); !errors.Is(err, ErrBadWire) {
		t.Fatalf("ragged pvb: err = %v, want ErrBadWire", err)
	}
	// changed_from compares as a number: a plan kept from t = -0 is
	// reported as an omitted (+0) changed_from and still agrees.
	negZero := []trajectory.Vertex{{X: 0, Y: 0, T: math.Copysign(0, -1)}, {X: 1, Y: 0, T: 1}}
	splice := []mod.Update{{OID: 7, Verts: []trajectory.Vertex{{X: 2, Y: 0, T: 0.5}, {X: 3, Y: 0, T: 2}}}}
	if got, err := DecodeApplied([]WireApplied{{OID: 7, PVB: PackVerts(negZero)}}, splice); err != nil || !math.Signbit(got[0].Traj.Verts[0].T) {
		t.Fatalf("a splice from t = -0: %+v, %v", got, err)
	}

	clear := []string{}
	updates = []mod.Update{{OID: 1, Verts: line(1, 0).Verts}, {OID: 2, Tags: &clear}, {OID: 3, Retire: true}}
	uw := PackUpdates(updates)
	if uw[0].Verts != nil || len(uw[0].VB) != 48 || len(uw[1].VB) != 0 || len(uw[2].VB) != 0 {
		t.Fatalf("packed updates: %+v", uw)
	}
	if got, err := DecodeUpdates(uw, true); err != nil || !reflect.DeepEqual(got, updates) {
		t.Fatalf("updates round trip diverged (%v)\n got: %+v\nwant: %+v", err, got, updates)
	}
	// The packed form is the shard link's: a surface that does not speak it
	// refuses it, and takes the same batch as triples.
	if _, err := DecodeUpdates(uw, false); !errors.Is(err, ErrBadWire) {
		t.Fatalf("packed update on a public surface: err = %v, want ErrBadWire", err)
	}
	uw[0].Verts, uw[0].VB = EncodeVerts(updates[0].Verts), nil
	if got, err := DecodeUpdates(uw, false); err != nil || !reflect.DeepEqual(got, updates) {
		t.Fatalf("array updates diverged (%v)\n got: %+v\nwant: %+v", err, got, updates)
	}
	uw[0].VB = PackVerts(updates[0].Verts)
	if _, err := DecodeUpdates(uw, true); !errors.Is(err, ErrBadWire) {
		t.Fatalf("update with both forms: err = %v, want ErrBadWire", err)
	}
}

func TestTokenOK(t *testing.T) {
	if !TokenOK("s3cret", "s3cret") || TokenOK("s3cret", "s3cre") || TokenOK("s3cret", "") {
		t.Fatal("token comparison")
	}
}

func TestUnsubscribeOwnership(t *testing.T) {
	c, _ := newCore(t)
	owner, other := &chanSink{}, &chanSink{}
	id, _, err := c.Subscribe(context.Background(), nnReq, owner)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(id, other); !errors.Is(err, ErrUnknownSub) {
		t.Fatalf("foreign unsubscribe = %v", err)
	}
	if err := c.Unsubscribe(id, owner); err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(id, owner); !errors.Is(err, ErrUnknownSub) {
		t.Fatalf("double unsubscribe = %v", err)
	}
	// A detached subscription may be canceled by anyone.
	id, _, _ = c.Subscribe(context.Background(), nnReq, owner)
	c.Detach(id, owner)
	if err := c.Unsubscribe(id, other); err != nil || c.Detached(id) || len(c.Hub().Subscriptions()) != 0 {
		t.Fatalf("unsubscribe of a detached subscription = %v", err)
	}
}

func TestInsertRefusesKnownOIDAndFansOut(t *testing.T) {
	c, _ := newCore(t)
	sink := &chanSink{}
	if _, _, err := c.Subscribe(context.Background(), nnReq, sink); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(context.Background(), line(2, 0.5)); !errors.Is(err, mod.ErrDuplicateOID) {
		t.Fatalf("insert over a known OID = %v", err)
	}
	if err := c.Insert(context.Background(), line(9, 0.5)); err != nil {
		t.Fatal(err)
	}
	if len(sink.got) != 1 || !slices.Equal(sink.got[0].Added, []int64{9}) {
		t.Fatalf("insert events = %+v", sink.got)
	}
}

func TestFailingSinkIsSeveredAndResumable(t *testing.T) {
	c, _ := newCore(t)
	sink := &chanSink{fail: true}
	id, _, err := c.Subscribe(context.Background(), nnReq, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(context.Background(), line(9, 0.5)); err != nil {
		t.Fatal(err)
	}
	if !c.Detached(id) {
		t.Fatal("a sink error did not detach the subscription")
	}
	// The old sink's teardown is a no-op once another sink resumed.
	next := &chanSink{}
	replay := func(_ engine.Result, backlog []continuous.Event) error {
		next.got = backlog
		return nil
	}
	if err := c.Resume(id, 0, next, replay); err != nil || len(next.got) != 1 {
		t.Fatalf("resume after a sever: %v, backlog %+v", err, next.got)
	}
	c.Detach(id, sink)
	if c.Detached(id) {
		t.Fatal("a stale sink detached a subscription it no longer owns")
	}
	// The owner itself may ask for a replay again; anyone else may not.
	if err := c.Resume(id, 0, next, replay); err != nil {
		t.Fatalf("owner re-resume: %v", err)
	}
	if err := c.Resume(id, 0, sink, replay); !errors.Is(err, ErrSubLive) {
		t.Fatalf("foreign resume = %v, want ErrSubLive", err)
	}
}
