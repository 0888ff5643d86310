package simtest

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/wal"
)

// storeBytes renders a store in its canonical binary form — the
// byte-identity currency of crash recovery.
func storeBytes(t *testing.T, st *mod.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hubOver mounts the serving topology under test on an existing store.
func hubOver(t *testing.T, store *mod.Store, shards int) *continuous.Hub {
	t.Helper()
	if shards == 0 {
		return continuous.NewEngineHub(store, engine.New(0))
	}
	router, err := cluster.NewLocalCluster(store, shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cluster.NewRouterHub(router)
}

// TestCrashRecoveryByteIdentity is the durability gate: a seeded world
// drives scripted update batches through a WAL exactly as a journaled
// server would (Append, then AfterApply for the snapshot policy), and
// EVERY step is a kill point — twice. Immediately after Append (the
// snapshot may be stale) and again after AfterApply, an independent
// wal.Recover reads the directory exactly as a restarted process would,
// and the recovered store must be byte-identical to the world's mirror.
// The post-crash store is then served through each topology from the
// main simulation gate — single engine, 2- and 4-shard local clusters —
// and every standing subscription's first
// answer must be byte-identical to a fresh engine run on the truth: a
// restart loses nothing and serves exactly what it served before.
func TestCrashRecoveryByteIdentity(t *testing.T) {
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
			cfg := DefaultConfig(seed)
			// Retirement churn rides the WAL too: every kill point now
			// lands on logs whose tail mixes revisions, flips, inserts,
			// retires, and same-OID re-entries.
			cfg.Retire = 1
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			init, err := w.InitialStore()
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			// SnapshotEvery 3 interleaves the two recovery shapes across
			// the run: kill points that replay a log tail on top of a
			// snapshot and kill points that land right on one.
			log, err := wal.Create(dir, init, wal.Options{SnapshotEvery: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()

			ctx := context.Background()
			reqs := w.Requests()
			for step := 0; step < cfg.Steps; step++ {
				batch, err := w.Step()
				if err != nil {
					t.Fatal(err)
				}
				truth, err := w.SnapshotStore()
				if err != nil {
					t.Fatal(err)
				}
				want := storeBytes(t, truth)

				if err := log.Append(batch); err != nil {
					t.Fatalf("step %d: append: %v", step, err)
				}
				// Kill point A: crash after the record is durable but
				// before the snapshot policy ran.
				recoverAndCompare(t, dir, step, "post-append", want, uint64(step+1))

				if err := log.AfterApply(truth); err != nil {
					t.Fatalf("step %d: after-apply: %v", step, err)
				}
				// Kill point B: crash after the snapshot policy ran.
				rec := recoverAndCompare(t, dir, step, "post-snapshot", want, uint64(step+1))

				// Restart serving on the recovered store: every standing
				// request answers byte-identically to a fresh engine on
				// the truth.
				hub := hubOver(t, rec, tc.shards)
				fresh := engine.New(0)
				for i, req := range reqs {
					id, live, err := hub.Subscribe(ctx, req)
					if err != nil {
						t.Fatalf("step %d sub %d (%s): subscribe: %v", step, i, req.Kind, err)
					}
					wantRes, err := fresh.Do(ctx, truth, req)
					if err != nil {
						t.Fatalf("step %d sub %d (%s): fresh: %v", step, i, req.Kind, err)
					}
					got, wantB := answerBytes(t, live), answerBytes(t, wantRes)
					if string(got) != string(wantB) {
						t.Fatalf("step %d sub %d (%s) after recovery:\n live %s\nfresh %s",
							step, i, req.Kind, got, wantB)
					}
					if !hub.Unsubscribe(id) {
						t.Fatalf("step %d sub %d: unsubscribe failed", step, i)
					}
				}
			}

			// The snapshot policy must actually have fired mid-run, or the
			// kill-point matrix degenerates to log-only recovery.
			_, info, err := wal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if info.SnapshotSeq == 0 {
				t.Fatalf("no snapshot taken across %d steps: %+v", cfg.Steps, info)
			}
		})
	}
}

// recoverAndCompare runs wal.Recover as a restarted process would and
// pins the recovered store's bytes and the recovery sequence.
func recoverAndCompare(t *testing.T, dir string, step int, phase string, want []byte, wantSeq uint64) *mod.Store {
	t.Helper()
	rec, info, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("step %d (%s): recover: %v", step, phase, err)
	}
	if info.Torn {
		t.Fatalf("step %d (%s): clean shutdown read as torn: %+v", step, phase, info)
	}
	if info.Seq() != wantSeq {
		t.Fatalf("step %d (%s): recovered seq %d, want %d", step, phase, info.Seq(), wantSeq)
	}
	if got := storeBytes(t, rec); !bytes.Equal(got, want) {
		t.Fatalf("step %d (%s): recovered store diverges from mirror (%d vs %d bytes)",
			step, phase, len(got), len(want))
	}
	return rec
}
