package modserver

// Serving-layer hardening tests: a stalled connection is disconnected at
// the read deadline (while a live one keeps talking past it), an
// oversized request line gets a diagnostic and a close, and the shard
// phases of the query op round-trip bounds (including the +Inf encoding)
// and survivors faithfully.

import (
	"bufio"
	"context"
	"errors"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/workload"
)

func startTCPServer(t *testing.T, store *mod.Store, o Options) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(store, engine.New(1), o)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

func testStore(t *testing.T, n int) *mod.Store {
	t.Helper()
	trs, err := workload.Generate(workload.DefaultConfig(5), n)
	if err != nil {
		t.Fatal(err)
	}
	store, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestStalledConnectionDisconnected: a client that connects and then goes
// silent is dropped once the read deadline passes, so it cannot wedge a
// shard's connection handling.
func TestStalledConnectionDisconnected(t *testing.T) {
	addr := startTCPServer(t, testStore(t, 3), Options{ReadTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing. The server must close the connection on its own.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("stalled connection was not closed by the server")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server left the stalled connection open for 5s")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("disconnect took %v, want ~ReadTimeout", d)
	}
}

// TestActiveConnectionOutlivesReadTimeout: the deadline is per request
// line, not per connection — a client that keeps talking stays connected
// well past ReadTimeout.
func TestActiveConnectionOutlivesReadTimeout(t *testing.T) {
	addr := startTCPServer(t, testStore(t, 3), Options{ReadTimeout: 80 * time.Millisecond})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := cli.Ping(); err != nil {
			t.Fatalf("live connection dropped: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestOversizedRequestRejected: a request line beyond MaxLineBytes gets a
// diagnostic response and the connection is closed (the line boundary is
// lost, so resynchronization is impossible).
func TestOversizedRequestRejected(t *testing.T) {
	addr := startTCPServer(t, testStore(t, 3), Options{MaxLineBytes: 256})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	big := `{"op":"ping","query":"` + strings.Repeat("x", 1024) + "\"}\n"
	if _, err := conn.Write([]byte(big)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("no diagnostic before close: %v", sc.Err())
	}
	if !strings.Contains(sc.Text(), "exceeds 256 bytes") {
		t.Fatalf("unexpected diagnostic: %s", sc.Text())
	}
	if sc.Scan() {
		t.Fatalf("connection stayed open after oversized request: %s", sc.Text())
	}
}

// TestShardPhasesRoundTrip drives the bounds and survivors phases over
// the wire and requires them to match the local prune calls exactly —
// including +Inf bounds surviving the -1 encoding — and all-unbounded
// bounds to ship every object but the query.
func TestShardPhasesRoundTrip(t *testing.T) {
	store := testStore(t, 80)
	addr := startTCPServer(t, store, Options{})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	q, err := store.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	wantBounds, err := prune.SliceBoundsWhere(context.Background(), store, q, 0, 30, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotBounds, err := cli.ShardBounds(q, 0, 30, 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(wantBounds, gotBounds) {
		t.Fatalf("bounds diverged over the wire:\n  want %v\n  got  %v", wantBounds, gotBounds)
	}

	// Impose bounds with +Inf holes: the encoding must carry them.
	imposed := slices.Clone(wantBounds)
	imposed[0] = math.Inf(1)
	if len(imposed) > 2 {
		imposed[len(imposed)/2] = math.Inf(1)
	}
	wantSurv, wantStats, err := prune.SurvivorsWithBoundsWhere(context.Background(), store, q, 0, 30, imposed, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotSurv, gotStats, err := cli.ShardSurvivors(q, 0, 30, imposed, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != wantStats {
		t.Fatalf("stats diverged: want %+v got %+v", wantStats, gotStats)
	}
	if len(gotSurv) != len(wantSurv) {
		t.Fatalf("%d survivors over the wire, want %d", len(gotSurv), len(wantSurv))
	}
	for i := range wantSurv {
		if gotSurv[i].OID != wantSurv[i].OID || len(gotSurv[i].Verts) != len(wantSurv[i].Verts) {
			t.Fatalf("survivor %d diverged: want OID %d (%d verts), got OID %d (%d verts)",
				i, wantSurv[i].OID, len(wantSurv[i].Verts), gotSurv[i].OID, len(gotSurv[i].Verts))
		}
	}

	all, _, err := cli.ShardSurvivors(q, 0, 30, unbounded(q, 0, 30), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != store.Len()-1 {
		t.Fatalf("all-unbounded survivors phase shipped %d trajectories, want %d", len(all), store.Len()-1)
	}

	// An expired deadline fails the sweep with a context error instead of
	// letting the phase run on (the per-slice checkpoints are
	// deadline-aware, not just cancellation-aware).
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := prune.SliceBoundsWhere(expired, store, q, 0, 30, 1, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline bounds phase: %v, want context.DeadlineExceeded", err)
	}
	if _, _, err := prune.SurvivorsWithBoundsWhere(expired, store, q, 0, 30, imposed, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline survivors phase: %v, want context.DeadlineExceeded", err)
	}
}

// TestNotFoundCrossesWire pins the coded error identity: a missing OID is
// errors.Is(err, mod.ErrNotFound) on the client side, which the cluster
// router's point-lookup broadcast depends on.
func TestNotFoundCrossesWire(t *testing.T) {
	addr := startTCPServer(t, testStore(t, 3), Options{})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Get(999); !errors.Is(err, mod.ErrNotFound) {
		t.Fatalf("remote get of missing OID: %v, want mod.ErrNotFound identity", err)
	}
	if err := cli.Delete(999); !errors.Is(err, mod.ErrNotFound) {
		t.Fatalf("remote delete of missing OID: %v, want mod.ErrNotFound identity", err)
	}
}
