package simtest

// The churn matrix: scripted retirement/re-insertion churn layered on
// the revision/flip/insert script, plus targeted injections — retiring a
// standing query's own target, unsubscribing mid-run — across every
// serving topology of the main gate. After every batch each surviving
// subscription stays byte-identical to a fresh engine on the truth;
// subscriptions standing on a retired OID answer the ErrUnknownOID
// identity on every topology until the re-insert revives them.

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/mod"
)

func TestChurnMatrixByteIdentity(t *testing.T) {
	const seed = 3011
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
			cfg := DefaultConfig(seed)
			cfg.Retire = 2
			w, err := NewWorld(cfg)
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

			// The injection victim: o(4) is both a target (UQ11 rows) and a
			// query OID (the short-window UQ31 rows), so one retirement must
			// flip every subscription standing on it, in either role.
			victim := w.initial[4].OID
			touchesVictim := func(req engine.Request) bool {
				return req.QueryOID == victim || req.OID == victim
			}
			victimPlan, err := w.mirror.Get(victim)
			if err != nil {
				t.Fatal(err)
			}
			victimTags := append([]string(nil), w.mirror.Tags(victim)...)

			dropped := -1       // index unsubscribed mid-run
			victimDown := false // between the inject-retire and the revival
			ingest := func(step int, batch []mod.Update) {
				t.Helper()
				_, events, err := hub.Ingest(ctx, batch)
				if err != nil {
					t.Fatalf("step %d: ingest: %v", step, err)
				}
				for _, ev := range events {
					if dropped >= 0 && ev.SubID == subIDs[dropped] {
						t.Fatalf("step %d: event for unsubscribed sub %d: %+v", step, subIDs[dropped], ev)
					}
				}
				snap, err := w.SnapshotStore()
				if err != nil {
					t.Fatal(err)
				}
				fresh := engine.New(0)
				for i, id := range subIDs {
					if i == dropped {
						if _, err := hub.Answer(id); err == nil {
							t.Fatalf("step %d: unsubscribed sub %d still answers", step, i)
						}
						continue
					}
					live, err := hub.Answer(id)
					if err != nil {
						t.Fatalf("step %d sub %d: %v", step, i, err)
					}
					if victimDown && touchesVictim(reqs[i]) {
						// Retired query/target: the ErrUnknownOID identity, on
						// every topology.
						if !errors.Is(live.Err, engine.ErrUnknownOID) {
							t.Fatalf("step %d sub %d (%s): err = %v, want ErrUnknownOID",
								step, i, reqs[i].Kind, live.Err)
						}
						continue
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

			retires := 0
			for step := 0; step < cfg.Steps; step++ {
				batch, err := w.Step()
				if err != nil {
					t.Fatal(err)
				}
				for _, u := range batch {
					if u.Retire {
						retires++
					}
				}
				ingest(step, batch)

				switch step {
				case 2:
					// Retire the standing victim out from under its queries.
					kill := []mod.Update{{OID: victim, Retire: true}}
					if err := w.Inject(kill); err != nil {
						t.Fatal(err)
					}
					victimDown = true
					ingest(step, kill)
				case 3:
					// Unsubscribe mid-run; later batches must neither emit its
					// events nor keep answering for it.
					dropped = 2
					if !hub.Unsubscribe(subIDs[dropped]) {
						t.Fatal("unsubscribe failed")
					}
				case 4:
					// Revive the victim under the same OID: every standing
					// subscription returns to byte identity.
					tags := append([]string(nil), victimTags...)
					revive := []mod.Update{{OID: victim, Verts: victimPlan.Verts, Tags: &tags}}
					if err := w.Inject(revive); err != nil {
						t.Fatal(err)
					}
					victimDown = false
					ingest(step, revive)
				}
			}
			if retires == 0 {
				t.Fatal("churn script produced no retirements")
			}
			stats := hub.Stats()
			if stats.Evals == 0 || stats.Skips == 0 {
				t.Fatalf("degenerate churn run: stats = %+v", stats)
			}
			t.Logf("%s: %d scripted retires, stats %+v", tc.name, retires, stats)
		})
	}
}

// TestChurnDeterminism pins the churn script: one seed replays the
// identical retire/re-insert schedule; different seeds diverge; the
// script always contains both retirements and same-OID re-entries; and
// retirement never touches a protected (standing-request) OID.
func TestChurnDeterminism(t *testing.T) {
	dump := func(seed int64) ([][]mod.Update, *World) {
		cfg := DefaultConfig(seed)
		cfg.Retire = 2
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]mod.Update
		for i := 0; i < cfg.Steps; i++ {
			batch, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, batch)
		}
		return out, w
	}
	encode := func(b [][]mod.Update) string {
		s, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		return string(s)
	}
	a, w := dump(7)
	b, _ := dump(7)
	if encode(a) != encode(b) {
		t.Fatal("same seed produced different churn scripts")
	}
	c, _ := dump(8)
	if encode(a) == encode(c) {
		t.Fatal("different seeds produced identical churn scripts")
	}

	retired, reentered := map[int64]int{}, 0
	for _, batch := range a {
		for _, u := range batch {
			if u.Retire {
				if w.protected[u.OID] {
					t.Fatalf("script retired protected OID %d", u.OID)
				}
				retired[u.OID]++
			} else if retired[u.OID] > 0 && len(u.Verts) > 0 {
				reentered++
			}
		}
	}
	if len(retired) == 0 || reentered == 0 {
		t.Fatalf("degenerate churn script: %d retired OIDs, %d re-entries", len(retired), reentered)
	}
}
