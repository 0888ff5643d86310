package modserver

import (
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/trajectory"
)

// liveStore builds the standard live scene: query object 1 crossing the
// plane, 2 shadowing it, 3 and 4 far away, plans covering [0, 10].
func liveStore(t *testing.T) *mod.Store {
	t.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for oid, y := range map[int64]float64{1: 0, 2: 1, 3: 50, 4: 100} {
		verts := make([]trajectory.Vertex, 11)
		for i := range verts {
			verts[i] = trajectory.Vertex{X: float64(i), Y: y, T: float64(i)}
		}
		tr, err := trajectory.New(oid, verts)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestIngestSubscribeOverWire drives the live ops end to end over TCP:
// one connection subscribes, another ingests, and the subscriber's event
// stream carries the diffs in order with monotone sequence numbers.
func TestIngestSubscribeOverWire(t *testing.T) {
	st := liveStore(t)
	_, addr := startServer(t, st)

	subCli, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()
	ingCli, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ingCli.Close()

	req := engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10}
	subID, initial, err := subCli.Subscribe(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(initial.OIDs, []int64{2}) {
		t.Fatalf("initial answer = %+v", initial)
	}

	// Ingest from the other connection: revision steering object 3 in.
	applied, err := ingCli.Ingest([]mod.Update{{OID: 3, Verts: []trajectory.Vertex{
		{X: 6, Y: 1, T: 6}, {X: 10, Y: 0.5, T: 10},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || applied[0].Inserted || applied[0].ChangedFrom != 5 ||
		applied[0].Traj == nil || applied[0].Prev == nil {
		t.Fatalf("applied = %+v", applied)
	}
	if len(applied[0].Traj.Verts) != 8 || len(applied[0].Prev.Verts) != 11 {
		t.Fatalf("wire trajectories: new %d verts, prev %d verts",
			len(applied[0].Traj.Verts), len(applied[0].Prev.Verts))
	}

	ev, err := subCli.NextEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ev.SubID != subID || ev.Seq != 1 || !reflect.DeepEqual(ev.Added, []int64{3}) ||
		!reflect.DeepEqual(ev.OIDs, []int64{2, 3}) {
		t.Fatalf("event = %+v", ev)
	}

	// An insert via the wire: ChangedFrom must round-trip as -Inf.
	applied, err = ingCli.Ingest([]mod.Update{{OID: 10, Verts: []trajectory.Vertex{
		{X: 0, Y: 0.5, T: 0}, {X: 10, Y: 0.5, T: 10},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if !applied[0].Inserted || !math.IsInf(applied[0].ChangedFrom, -1) {
		t.Fatalf("insert outcome = %+v", applied[0])
	}
	ev, err = subCli.NextEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 2 || !reflect.DeepEqual(ev.Added, []int64{10}) {
		t.Fatalf("second event = %+v", ev)
	}

	// An irrelevant far revision produces no event; the next relevant one
	// carries Seq 3 (no gaps, nothing skipped on the wire).
	if _, err := ingCli.Ingest([]mod.Update{{OID: 4, Verts: []trajectory.Vertex{
		{X: 7, Y: 99, T: 7}, {X: 10, Y: 99, T: 10},
	}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ingCli.Ingest([]mod.Update{{OID: 3, Verts: []trajectory.Vertex{
		{X: 6, Y: 80, T: 5.5}, {X: 10, Y: 80, T: 10},
	}}}); err != nil {
		t.Fatal(err)
	}
	ev, err = subCli.NextEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 3 || !reflect.DeepEqual(ev.Removed, []int64{3}) || !reflect.DeepEqual(ev.OIDs, []int64{2, 10}) {
		t.Fatalf("third event = %+v", ev)
	}

	// Only the owning connection may unsubscribe.
	if err := ingCli.Unsubscribe(subID); err == nil {
		t.Fatal("foreign connection unsubscribed someone else's stream")
	}
	// Unsubscribe stops the stream: a further relevant ingest emits
	// nothing for this subscription.
	if err := subCli.Unsubscribe(subID); err != nil {
		t.Fatal(err)
	}
	if err := subCli.Unsubscribe(subID); err == nil {
		t.Fatal("double unsubscribe succeeded")
	}

	// A bad ingest surfaces its error.
	if _, err := ingCli.Ingest([]mod.Update{{OID: 77, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: 1}}}}); err == nil {
		t.Fatal("short insert accepted over the wire")
	}
}

// TestSubscribeSameConnIngest exercises the single-connection flow: the
// ingest reply and the event both travel to the same client, which must
// route them apart.
func TestSubscribeSameConnIngest(t *testing.T) {
	st := liveStore(t)
	_, addr := startServer(t, st)
	cli, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	req := engine.Request{Kind: engine.KindUQ11, QueryOID: 1, Tb: 0, Te: 10, OID: 3}
	subID, initial, err := cli.Subscribe(req)
	if err != nil {
		t.Fatal(err)
	}
	if initial.Bool || !initial.IsBool {
		t.Fatalf("initial = %+v", initial)
	}
	if _, err := cli.Ingest([]mod.Update{{OID: 3, Verts: []trajectory.Vertex{
		{X: 6, Y: 1, T: 6}, {X: 10, Y: 0.5, T: 10},
	}}}); err != nil {
		t.Fatal(err)
	}
	ev, err := cli.NextEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ev.SubID != subID || !ev.IsBool || !ev.Bool {
		t.Fatalf("event = %+v", ev)
	}
}

// TestIdleSubscriberSurvivesReadTimeout pins the deadline exemption: a
// connection that owns a subscription is a pure event listener and must
// not be reaped for sending no request lines, even with an aggressive
// read timeout.
func TestIdleSubscriberSurvivesReadTimeout(t *testing.T) {
	st := liveStore(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(st, nil, Options{ReadTimeout: 50 * time.Millisecond})
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(l) }()
	t.Cleanup(func() { srv.Close(); <-done })

	subCli, err := DialWith(l.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()
	subID, _, err := subCli.Subscribe(engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Sit well past the read timeout without sending anything.
	time.Sleep(250 * time.Millisecond)

	ingCli, err := DialWith(l.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ingCli.Close()
	if _, err := ingCli.Ingest([]mod.Update{{OID: 3, Verts: []trajectory.Vertex{
		{X: 6, Y: 1, T: 6}, {X: 10, Y: 0.5, T: 10},
	}}}); err != nil {
		t.Fatal(err)
	}
	ev, err := subCli.NextEvent()
	if err != nil {
		t.Fatalf("idle subscriber was reaped: %v", err)
	}
	if ev.SubID != subID || ev.Seq != 1 {
		t.Fatalf("event = %+v", ev)
	}
}

// nextEventSoon is NextEvent with a deadline, so a mutation that never
// reaches the subscriber fails the test instead of hanging it.
func nextEventSoon(t *testing.T, cli *Client) (continuous.Event, error) {
	t.Helper()
	type result struct {
		ev  continuous.Event
		err error
	}
	got := make(chan result, 1)
	go func() {
		ev, err := cli.NextEvent()
		got <- result{ev, err}
	}()
	select {
	case r := <-got:
		return r.ev, r.err
	case <-time.After(5 * time.Second):
		t.Fatal("no event within 5s: the mutation bypassed the hub")
		return continuous.Event{}, nil
	}
}

// TestInsertAndTripReachSubscribers: the legacy insert and trip ops are
// one-update ingests, so — journal or not — a subscriber whose zone the new
// object enters receives the diff event.
func TestInsertAndTripReachSubscribers(t *testing.T) {
	st := liveStore(t)
	_, addr := startServer(t, st)
	subCli, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()
	mutCli, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mutCli.Close()

	subID, initial, err := subCli.Subscribe(engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(initial.OIDs, []int64{2}) {
		t.Fatalf("initial answer = %+v", initial)
	}

	shadow, err := trajectory.New(10, []trajectory.Vertex{{X: 0, Y: 0.5, T: 0}, {X: 10, Y: 0.5, T: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if err := mutCli.Insert(shadow); err != nil {
		t.Fatal(err)
	}
	ev, err := nextEventSoon(t, subCli)
	if err != nil || ev.SubID != subID || ev.Seq != 1 || !reflect.DeepEqual(ev.Added, []int64{10}) {
		t.Fatalf("insert event = %+v, %v", ev, err)
	}

	// A trip along the query's own path, at the query's own speed.
	if _, err := mutCli.PlanTrip(11, []geom.Point{{X: 0, Y: -0.5}, {X: 10, Y: -0.5}}, 0, 1); err != nil {
		t.Fatal(err)
	}
	ev, err = nextEventSoon(t, subCli)
	if err != nil || ev.Seq != 2 || !reflect.DeepEqual(ev.Added, []int64{11}) {
		t.Fatalf("trip event = %+v, %v", ev, err)
	}

	// Delete is a retire ingest: the subscriber sees the object leave.
	if err := mutCli.Delete(10); err != nil {
		t.Fatal(err)
	}
	ev, err = nextEventSoon(t, subCli)
	if err != nil || ev.Seq != 3 || !reflect.DeepEqual(ev.Removed, []int64{10}) {
		t.Fatalf("delete event = %+v, %v", ev, err)
	}
}
