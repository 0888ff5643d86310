package modserver

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/queries"
)

// TestQueryOpOverWire: the unified query op must agree with direct
// Engine.Do evaluation, carry Explain provenance, and report per-request
// failures in place.
func TestQueryOpOverWire(t *testing.T) {
	store := seededStore(t, 30)
	_, addr := startServer(t, store)
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qOID := store.OIDs()[0]
	reqs := []engine.Request{
		{Kind: engine.KindUQ31, QueryOID: qOID, Tb: 0, Te: 60},
		{Kind: engine.KindUQ41, QueryOID: qOID, Tb: 0, Te: 60, K: 2},
		{Kind: engine.KindUQ11, QueryOID: qOID, Tb: 0, Te: 60, OID: store.OIDs()[1]},
		{Kind: engine.KindUQ31, QueryOID: qOID, Tb: 60, Te: 0}, // bad window
		{Kind: "NOPE", QueryOID: qOID, Tb: 0, Te: 60},          // bad kind
	}
	got, err := c.Query(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(got), len(reqs))
	}

	eng := engine.New(0)
	for i, req := range reqs[:3] {
		want, err := eng.Do(nil, store, req)
		if err != nil {
			t.Fatalf("direct Do %d: %v", i, err)
		}
		if got[i].Err != nil {
			t.Fatalf("wire result %d: %v", i, got[i].Err)
		}
		if got[i].IsBool != want.IsBool || got[i].Bool != want.Bool {
			t.Errorf("request %d: wire %+v != direct %+v", i, got[i], want)
		}
		wantIDs, gotIDs := append([]int64{}, want.OIDs...), append([]int64{}, got[i].OIDs...)
		if len(wantIDs) != len(gotIDs) {
			t.Errorf("request %d: wire OIDs %v != direct %v", i, gotIDs, wantIDs)
		}
		if got[i].Explain.Workers == 0 {
			t.Errorf("request %d: explain lost on the wire: %+v", i, got[i].Explain)
		}
	}
	if got[3].Err == nil || !strings.Contains(got[3].Err.Error(), "window") {
		t.Errorf("bad window not reported per-request: %v", got[3].Err)
	}
	if got[4].Err == nil {
		t.Error("bad kind not reported per-request")
	}

	// The connection still serves after per-request failures.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryOpDeadline: an un-meetable deadline fails the op with the
// server's context error and leaves the store and connection usable.
func TestQueryOpDeadline(t *testing.T) {
	store := seededStore(t, 400)
	_, addr := startServer(t, store)
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Enough distinct (query, window) pairs that every request pays a
	// fresh O(N) preprocessing: far beyond a 1 ms deadline at N=400.
	oids := store.OIDs()
	var reqs []engine.Request
	for i := 0; i < 64; i++ {
		reqs = append(reqs, engine.Request{
			Kind: engine.KindUQ31, QueryOID: oids[i], Tb: 0, Te: 30 + float64(i)/100,
		})
	}
	if _, err := c.Query(reqs, time.Millisecond); err == nil ||
		!strings.Contains(err.Error(), "context deadline exceeded") {
		t.Fatalf("deadline not enforced: err=%v", err)
	}

	// Store and connection remain usable: the same first request answers
	// fine without a deadline.
	got, err := c.Query(reqs[:1], 0)
	if err != nil || got[0].Err != nil {
		t.Fatalf("server unusable after expired deadline: %v / %v", err, got[0].Err)
	}
	n, err := c.Count()
	if err != nil || n != store.Len() {
		t.Fatalf("count after deadline: n=%d err=%v", n, err)
	}
}

// TestQueryOpThresholdKind exercises the Section 7 threshold query — UQ33
// with a probability bound — end to end over the wire against the serial
// Processor.
func TestQueryOpThresholdKind(t *testing.T) {
	store := seededStore(t, 8)
	_, addr := startServer(t, store)
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qOID := store.OIDs()[0]
	q, err := store.Get(qOID)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	table, err := proc.ProbabilityTable(context.Background(), queries.ThresholdConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := table.ThresholdNNAll(0.4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query([]engine.Request{
		{Kind: engine.KindUQ33, QueryOID: qOID, Tb: 0, Te: 60, P: 0.4, X: 0.1},
	}, 0)
	if err != nil || got[0].Err != nil {
		t.Fatalf("UQ33 p=0.4 over wire: %v / %v", err, got[0].Err)
	}
	if len(got[0].OIDs) != len(want) {
		t.Fatalf("UQ33 p=0.4 wire %v != serial %v", got[0].OIDs, want)
	}
	for i := range want {
		if got[0].OIDs[i] != want[i] {
			t.Fatalf("UQ33 p=0.4 wire %v != serial %v", got[0].OIDs, want)
		}
	}
}
