package continuous

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/mod"
)

// flipIngest alternately steers object 3 next to / away from query
// object 1, so a UQ11(1, 3) subscription emits one event per call.
func flipIngest(t *testing.T, h *Hub, near bool) {
	t.Helper()
	u := revision(3, [3]float64{6, 80, 5.5}, [3]float64{10, 80, 10})
	if near {
		u = revision(3, [3]float64{6, 1, 6}, [3]float64{8, 0.5, 8}, [3]float64{10, 0.5, 10})
	}
	_, events, err := h.Ingest(context.Background(), []mod.Update{u})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("flip ingest (near=%v) emitted %+v, want exactly 1 event", near, events)
	}
}

func TestReplayReturnsMissedEvents(t *testing.T) {
	st := liveScene(t)
	h := NewEngineHub(st, engine.New(1))
	id, res := mustSubscribe(t, h, engine.Request{Kind: engine.KindUQ11, QueryOID: 1, Tb: 0, Te: 10, OID: 3})
	if res.Bool {
		t.Fatal("object 3 should not be a possible NN initially")
	}

	const n = 6
	for i := 0; i < n; i++ {
		flipIngest(t, h, i%2 == 0)
	}

	// Nothing missed: a replay at (or past) the current seq is empty.
	for _, from := range []uint64{n, n + 3} {
		evs, err := h.Replay(id, from)
		if err != nil || len(evs) != 0 {
			t.Fatalf("Replay(%d) = %v, %v; want empty", from, evs, err)
		}
	}

	// Every resume point inside the backlog yields exactly the missed
	// suffix, in order, with contiguous sequence numbers.
	for from := uint64(0); from < n; from++ {
		evs, err := h.Replay(id, from)
		if err != nil {
			t.Fatalf("Replay(%d): %v", from, err)
		}
		if len(evs) != int(n-from) {
			t.Fatalf("Replay(%d) returned %d events, want %d", from, len(evs), n-from)
		}
		for i, ev := range evs {
			if ev.Seq != from+uint64(i)+1 {
				t.Fatalf("Replay(%d)[%d].Seq = %d, want %d", from, i, ev.Seq, from+uint64(i)+1)
			}
			if ev.SubID != id || !ev.IsBool {
				t.Fatalf("Replay(%d)[%d] = %+v", from, i, ev)
			}
			// Events alternate true/false starting with true at seq 1.
			if want := ev.Seq%2 == 1; ev.Bool != want {
				t.Fatalf("Replay(%d)[%d].Bool = %v at seq %d, want %v", from, i, ev.Bool, ev.Seq, want)
			}
		}
	}

	if _, err := h.Replay(id+99, 0); !errors.Is(err, ErrNoSub) {
		t.Fatalf("unknown sub: %v, want ErrNoSub", err)
	}
}

func TestReplayGapWhenBacklogTruncated(t *testing.T) {
	st := liveScene(t)
	h := NewEngineHub(st, engine.New(1))
	id, _ := mustSubscribe(t, h, engine.Request{Kind: engine.KindUQ11, QueryOID: 1, Tb: 0, Te: 10, OID: 3})

	const n = DefaultBacklog + 3
	for i := 0; i < n; i++ {
		flipIngest(t, h, i%2 == 0)
	}

	// The backlog holds only the last DefaultBacklog events (seqs 4..n):
	// resuming from seq 3 or later works, anything earlier is a gap.
	for from := uint64(n - DefaultBacklog); from <= n; from++ {
		evs, err := h.Replay(id, from)
		if err != nil {
			t.Fatalf("Replay(%d): %v", from, err)
		}
		if len(evs) != int(n-from) {
			t.Fatalf("Replay(%d) returned %d events, want %d", from, len(evs), n-from)
		}
	}
	for from := uint64(0); from < n-DefaultBacklog; from++ {
		if _, err := h.Replay(id, from); !errors.Is(err, ErrEventGap) {
			t.Fatalf("Replay(%d) = %v, want ErrEventGap", from, err)
		}
	}
}
