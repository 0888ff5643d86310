package modserver

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

// TestJournaledServerRecovers wires a WAL journal under a live server,
// mutates through every op (ingest, insert, trip, delete — each one an
// update batch on the journaled path), then recovers the directory and
// demands the byte-identical store — the contract the -wal-dir flag rides
// on.
func TestJournaledServerRecovers(t *testing.T) {
	dir := t.TempDir()
	st := liveStore(t)
	log, err := wal.Create(dir, st, wal.Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	srv, addr := startServerWith(t, st, Options{Journal: log})
	_ = srv
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 3; i++ {
		mustFlip(t, cli, i)
	}
	ntr, err := trajectory.New(77, []trajectory.Vertex{{X: 1, Y: 1, T: 0}, {X: 2, Y: 2, T: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Insert(ntr); err != nil {
		t.Fatal(err)
	}
	// Duplicate insert is rejected before it ever reaches the journal.
	if err := cli.Insert(ntr); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate insert: %v", err)
	}
	if _, err := cli.PlanTrip(78, []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Delete is a journaled retire: it succeeds, and recovery must not
	// resurrect the object.
	if err := cli.Delete(4); err != nil {
		t.Fatalf("delete on a journaled server: %v", err)
	}
	if err := cli.Delete(4); !errors.Is(err, mod.ErrNotFound) {
		t.Fatalf("second delete = %v, want not found", err)
	}

	var live bytes.Buffer
	if err := st.SaveBinary(&live); err != nil {
		t.Fatal(err)
	}
	recovered, info, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn {
		t.Fatalf("clean shutdown recovered torn: %+v", info)
	}
	var rec bytes.Buffer
	if err := recovered.SaveBinary(&rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), rec.Bytes()) {
		t.Fatalf("recovered store differs from live: %d vs %d bytes", rec.Len(), live.Len())
	}
	if _, err := recovered.Get(77); err != nil {
		t.Fatalf("inserted object lost in recovery: %v", err)
	}
	if _, err := recovered.Get(78); err != nil {
		t.Fatalf("trip object lost in recovery: %v", err)
	}
	if _, err := recovered.Get(4); !errors.Is(err, mod.ErrNotFound) {
		t.Fatalf("deleted object resurrected by recovery: %v", err)
	}
}
