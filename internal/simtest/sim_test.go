package simtest

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/mod"
)

// answerBytes serializes the answer-bearing fields of a result — the
// byte-identity currency of the suite (Explain legitimately differs
// between serving topologies).
func answerBytes(t *testing.T, res engine.Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Kind   engine.Kind       `json:"kind"`
		IsBool bool              `json:"is_bool"`
		Bool   bool              `json:"bool"`
		OIDs   []int64           `json:"oids"`
		Pairs  map[int64][]int64 `json:"pairs"`
	}{res.Kind, res.IsBool, res.Bool, res.OIDs, res.Pairs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// topology builds the hub under test over the world's initial fleet.
func topology(t *testing.T, w *World, shards int) *continuous.Hub {
	t.Helper()
	store, err := w.InitialStore()
	if err != nil {
		t.Fatal(err)
	}
	return hubOver(t, store, shards)
}

// TestSimulationByteIdentity is the simulation gate: a seeded world is
// stepped through scripted revision/insert batches, and after EVERY step
// every live subscription's answer must be byte-identical to a fresh
// Engine.Do on a snapshot of the world's truth — over a single engine and
// 2- and 4-shard local clusters. A background poller hammers Answer/Stats
// concurrently so the suite is meaningful under -race.
func TestSimulationByteIdentity(t *testing.T) {
	const seed = 2009
	cases := []struct {
		name   string
		shards int
	}{
		{"single", 0},
		{"shard2", 2},
		{"shard4", 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorld(DefaultConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			hub := topology(t, w, tc.shards)
			ctx := context.Background()

			reqs := w.Requests()
			subIDs := make([]int64, len(reqs))
			for i, req := range reqs {
				id, _, err := hub.Subscribe(ctx, req)
				if err != nil {
					t.Fatalf("subscribe %d (%s): %v", i, req.Kind, err)
				}
				subIDs[i] = id
			}

			// Concurrent readers for the race detector.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, id := range subIDs {
						_, _ = hub.Answer(id)
					}
					_ = hub.Stats()
				}
			}()
			defer func() {
				close(stop)
				wg.Wait()
			}()

			for step := 0; step < DefaultConfig(seed).Steps; step++ {
				batch, err := w.Step()
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := hub.Ingest(ctx, batch); err != nil {
					t.Fatalf("step %d: ingest: %v", step, err)
				}
				snap, err := w.SnapshotStore()
				if err != nil {
					t.Fatal(err)
				}
				fresh := engine.New(0)
				for i, id := range subIDs {
					live, err := hub.Answer(id)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.Do(ctx, snap, reqs[i])
					if err != nil {
						t.Fatalf("step %d sub %d (%s): fresh: %v", step, i, reqs[i].Kind, err)
					}
					got, wantB := answerBytes(t, live), answerBytes(t, want)
					if string(got) != string(wantB) {
						t.Fatalf("step %d sub %d (%s):\n live %s\nfresh %s",
							step, i, reqs[i].Kind, got, wantB)
					}
				}
			}

			stats := hub.Stats()
			if stats.Evals == 0 || stats.Skips == 0 {
				t.Fatalf("degenerate run: stats = %+v (want both evals and skips)", stats)
			}
			t.Logf("%s: %+v", tc.name, stats)
		})
	}
}

// TestSimulationDeterminism pins the scriptedness: two worlds with one
// seed emit identical update bytes; a different seed diverges.
func TestSimulationDeterminism(t *testing.T) {
	dump := func(seed int64) string {
		w, err := NewWorld(DefaultConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		var s string
		for i := 0; i < 3; i++ {
			batch, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(batch)
			if err != nil {
				t.Fatal(err)
			}
			s += string(b)
		}
		return s
	}
	if dump(7) != dump(7) {
		t.Fatal("same seed produced different scripts")
	}
	if dump(7) == dump(8) {
		t.Fatal("different seeds produced identical scripts")
	}
}

// TestScriptSurvivesTheWire: every scripted update means the same thing
// after a JSON round trip as in process — in particular a flip to the
// empty tag set stays "clear" ([]), never decaying to null ("unchanged").
func TestScriptSurvivesTheWire(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.Retire = 2
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cleared := 0
	for step := 0; step < cfg.Steps; step++ {
		batch, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		var back []mod.Update
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		for i, u := range batch {
			if (u.Tags == nil) != (back[i].Tags == nil) {
				t.Fatalf("step %d update %d (oid %d): tags %v crossed the wire as %v",
					step, i, u.OID, u.Tags, back[i].Tags)
			}
			if u.Tags != nil && len(*u.Tags) == 0 {
				cleared++
			}
		}
	}
	if cleared == 0 {
		t.Fatal("the script never cleared a tag set")
	}
}

// TestWorldCoverage keeps the harness honest: every emitted update leaves
// every plan covering [0, Span], so no standing window ever dies of a
// span error mid-simulation.
func TestWorldCoverage(t *testing.T) {
	w, err := NewWorld(DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < DefaultConfig(11).Steps; step++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
		snap, err := w.SnapshotStore()
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range snap.All() {
			tb, te := tr.TimeSpan()
			if tb > 0 || te < Span {
				t.Fatalf("step %d: oid %d spans [%g, %g]", step, tr.OID, tb, te)
			}
		}
	}
}
