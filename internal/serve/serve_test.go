package serve

// Core-level tests for what no codec exposes the same way on both sides:
// the wire shape's Inf markers, Unsubscribe ownership, Insert, a severing
// sink, and the disabled-TTL configuration. Everything a client can observe
// on both front doors is in conformance_test.go.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

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
func newCore(t *testing.T, maxDetached int, ttl time.Duration) (*Core, *mod.Store) {
	t.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InsertAll([]*trajectory.Trajectory{line(1, 0), line(2, 1), line(3, 50)}); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(1)
	return New(continuous.NewEngineHub(st, eng), st, nil, maxDetached, ttl), st
}

var nnReq = engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10}

func TestWireAppliedRoundTrip(t *testing.T) {
	tags := []string{"ev"}
	applied := []mod.Applied{
		{OID: 1, Inserted: true, ChangedFrom: math.Inf(-1), Traj: line(1, 0), TagsChanged: true, Tags: tags},
		{OID: 2, ChangedFrom: 5, Traj: line(2, 1), Prev: line(2, 2)},
		{OID: 3, ChangedFrom: math.Inf(1), Traj: line(3, 0), TagsChanged: true, Tags: tags, PrevTags: []string{"old"}},
		{OID: 4, Retired: true, ChangedFrom: math.Inf(-1), Prev: line(4, 0)},
	}
	wire := EncodeApplied(applied)
	if wire[0].ChangedFrom != 0 || !wire[2].TagsOnly || wire[2].ChangedFrom != 0 || !wire[3].Retired || wire[3].VB != nil || wire[1].VB == nil || wire[1].PVB == nil {
		t.Fatalf("wire markers: %+v", wire)
	}
	back, err := DecodeApplied(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, applied) {
		t.Fatalf("round trip diverged\n got: %+v\nwant: %+v", back, applied)
	}
	// The outcomes alone are the same items with neither plan.
	outcomes := EncodeOutcomes(applied)
	for i := range wire {
		wire[i].VB, wire[i].PVB = nil, nil
	}
	if !reflect.DeepEqual(outcomes, wire) {
		t.Fatalf("outcomes diverged from the packed items\n got: %+v\nwant: %+v", outcomes, wire)
	}
	if _, err := DecodeApplied([]WireApplied{{OID: 9, VB: PackVerts(line(9, 0).Verts[:1])}}); err == nil {
		t.Fatal("a one-vertex trajectory decoded")
	}
	if _, err := DecodeApplied([]WireApplied{{OID: 9, PVB: PackVerts(line(9, 0).Verts)[:47]}}); !errors.Is(err, ErrBadWire) {
		t.Fatalf("ragged pvb: err = %v, want ErrBadWire", err)
	}

	clear := []string{}
	updates := []mod.Update{{OID: 1, Verts: line(1, 0).Verts}, {OID: 2, Tags: &clear}, {OID: 3, Retire: true}}
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
	c, _ := newCore(t, 0, 0)
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
	c, _ := newCore(t, 0, 0)
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
	c, _ := newCore(t, 0, 0)
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

func TestNegativeTTLNeverExpires(t *testing.T) {
	c, _ := newCore(t, 0, -1)
	now := time.Unix(1_000_000, 0)
	c.now = func() time.Time { return now }
	sink := &chanSink{}
	id, _, err := c.Subscribe(context.Background(), nnReq, sink)
	if err != nil {
		t.Fatal(err)
	}
	c.Detach(id, sink)
	now = now.Add(24 * time.Hour)
	if err := c.Insert(context.Background(), line(9, 0.5)); err != nil {
		t.Fatal(err)
	}
	if !c.Detached(id) {
		t.Fatal("subscription expired with the deadline disabled")
	}
	if err := c.Resume(id, 0, sink, func(engine.Result, []continuous.Event) error { return nil }); err != nil {
		t.Fatalf("resume with expiry disabled: %v", err)
	}
}
