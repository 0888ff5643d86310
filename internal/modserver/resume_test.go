// Line-protocol resume tests: a client resuming while ingest runs
// concurrently sees one contiguous stream, and a stalled subscriber is
// severed with the coded event_stalled close yet stays resumable. The
// resume semantics both codecs share (every from_seq, typed gap, LRU and
// TTL bounds) are pinned by internal/serve's conformance suite.
package modserver

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/serve"
	"repro/internal/trajectory"
)

// flipUpdate alternately steers object 3 next to / away from query
// object 1, so a UQ11(1, 3) subscription emits one event per ingest.
func flipUpdate(near bool) mod.Update {
	if near {
		return mod.Update{OID: 3, Verts: []trajectory.Vertex{
			{X: 6, Y: 1, T: 6}, {X: 8, Y: 0.5, T: 8}, {X: 10, Y: 0.5, T: 10},
		}}
	}
	return mod.Update{OID: 3, Verts: []trajectory.Vertex{
		{X: 6, Y: 80, T: 5.5}, {X: 10, Y: 80, T: 10},
	}}
}

func mustFlip(t *testing.T, cli *Client, i int) {
	t.Helper()
	if _, err := cli.Ingest([]mod.Update{flipUpdate(i%2 == 0)}); err != nil {
		t.Fatalf("flip %d: %v", i, err)
	}
}

// waitDetached polls until sub id lands in the server's detached set.
func waitDetached(t *testing.T, srv *Server, id int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.core.Detached(id) {
		if time.Now().After(deadline) {
			t.Fatalf("subscription %d never detached", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// uq11Flip is the subscription every resume test drives: "is object 3 a
// possible NN of object 1", which flipUpdate toggles on each ingest.
var uq11Flip = engine.Request{Kind: engine.KindUQ11, QueryOID: 1, Tb: 0, Te: 10, OID: 3}

// TestResumeReplaysMissedEvents: a subscriber sees two events, drops, the
// world moves on, and a new connection resuming with from_seq receives
// exactly the missed suffix in order — then keeps streaming live events
// produced while and after it resumed.
func TestResumeReplaysMissedEvents(t *testing.T) {
	st := liveStore(t)
	srv, addr := startServer(t, st)

	ing, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	subCli, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	subID, initial, err := subCli.Subscribe(uq11Flip)
	if err != nil {
		t.Fatal(err)
	}
	if initial.Bool {
		t.Fatal("object 3 should not be a possible NN initially")
	}

	// Two events observed live, then the subscriber drops.
	for i := 0; i < 2; i++ {
		mustFlip(t, ing, i)
		ev, err := subCli.NextEvent()
		if err != nil || ev.Seq != uint64(i+1) {
			t.Fatalf("live event %d: %+v, %v", i, ev, err)
		}
	}
	subCli.Close()
	waitDetached(t, srv, subID)

	// Three more flips land while nobody is listening (seqs 3..5).
	for i := 2; i < 5; i++ {
		mustFlip(t, ing, i)
	}

	// Resume from the last seq the old connection saw, with ingest still
	// running concurrently: the stream must be contiguous from seq 3 on,
	// replayed backlog first, live events after, no duplicates or gaps.
	re, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ingestDone := make(chan error, 1)
	go func() {
		c, err := DialWith(addr, DialOptions{})
		if err != nil {
			ingestDone <- err
			return
		}
		defer c.Close()
		for i := 5; i < 10; i++ {
			if _, err := c.Ingest([]mod.Update{flipUpdate(i%2 == 0)}); err != nil {
				ingestDone <- fmt.Errorf("concurrent flip %d: %w", i, err)
				return
			}
		}
		ingestDone <- nil
	}()

	ans, err := re.Resume(subID, 2)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !ans.IsBool {
		t.Fatalf("resume answer = %+v", ans)
	}
	for want := uint64(3); want <= 10; want++ {
		ev, err := re.NextEvent()
		if err != nil {
			t.Fatalf("event after resume (want seq %d): %v", want, err)
		}
		if ev.Seq != want || ev.SubID != subID {
			t.Fatalf("event = %+v, want seq %d for sub %d", ev, want, subID)
		}
		// Flips alternate: odd seqs move object 3 near (true).
		if got, wantBool := ev.Bool, ev.Seq%2 == 1; got != wantBool {
			t.Fatalf("event seq %d: Bool = %v, want %v", ev.Seq, got, wantBool)
		}
	}
	if err := <-ingestDone; err != nil {
		t.Fatal(err)
	}
}

// TestStalledSubscriberSeveredAndResumable drives the event_stalled path
// over net.Pipe (writes block until read, the deterministic slow peer): a
// subscriber that stops reading is severed by the event write deadline,
// but its subscription detaches with the backlog intact, so a resume
// recovers the event it never received.
func TestStalledSubscriberSeveredAndResumable(t *testing.T) {
	st := liveStore(t)
	srv := NewServerWith(st, engine.New(1), Options{})
	srv.writeTimeout = 150 * time.Millisecond
	t.Cleanup(func() { srv.Close() })
	serve := func() (net.Conn, chan struct{}) {
		ours, theirs := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(theirs)
		}()
		t.Cleanup(func() { ours.Close() })
		return ours, done
	}

	// Subscribe over a raw pipe and read only the subscribe reply.
	subConn, subDone := serve()
	subEnc := json.NewEncoder(subConn)
	subBr := bufio.NewReader(subConn)
	if err := subEnc.Encode(Request{Op: "subscribe", Request: &uq11Flip}); err != nil {
		t.Fatal(err)
	}
	line, err := subBr.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var subResp Response
	if err := json.Unmarshal([]byte(line), &subResp); err != nil || !subResp.OK {
		t.Fatalf("subscribe reply %q: %v", line, err)
	}
	subID := subResp.SubID

	// Ingest from a second pipe. The subscriber never reads again, so the
	// event fan-out write blocks until the deadline severs it.
	ingConn, _ := serve()
	ingCli := NewClient(ingConn)
	if _, err := ingCli.Ingest([]mod.Update{flipUpdate(true)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-subDone:
	case <-time.After(5 * time.Second):
		t.Fatal("server kept the stalled subscriber past the write deadline")
	}
	waitDetached(t, srv, subID)

	// The missed event is still replayable.
	reConn, _ := serve()
	re := NewClient(reConn)
	if _, err := re.Resume(subID, 0); err != nil {
		t.Fatalf("Resume after stall: %v", err)
	}
	ev, err := re.NextEvent()
	if err != nil || ev.Seq != 1 || !ev.Bool {
		t.Fatalf("replayed event = %+v, %v", ev, err)
	}
}

// TestNextEventMapsStalledCode: the client surfaces a server's parting
// event_stalled line as serve.ErrEventStalled, distinct from ErrConnClosed.
func TestNextEventMapsStalledCode(t *testing.T) {
	ours, theirs := net.Pipe()
	defer ours.Close()
	cli := NewClient(theirs)
	defer cli.Close()
	go func() {
		enc := json.NewEncoder(ours)
		_ = enc.Encode(fail(serve.ErrEventStalled))
		ours.Close()
	}()
	if _, err := cli.NextEvent(); !errors.Is(err, serve.ErrEventStalled) {
		t.Fatalf("NextEvent = %v, want serve.ErrEventStalled", err)
	}
	if _, err := cli.NextEvent(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("NextEvent after close = %v, want ErrConnClosed", err)
	}
}
