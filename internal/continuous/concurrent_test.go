package continuous

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/mod"
)

// TestConcurrentDoWhileHubPatches hammers the engine the hub evaluates
// through with one-shot variants of the standing questions' own (query,
// window, predicate) keys while batches are ingested: the one-shot calls
// land on the very processors the hub just installed as successors, so
// their zone rows are filled from several goroutines at once while the
// hub reads the same table for its own answer and takes the next seed
// from it. Meaningful under -race (make race); in a plain run it still
// pins that answers stay fresh under the interleaving.
func TestConcurrentDoWhileHubPatches(t *testing.T) {
	const batches = 40
	w, reqs := standingWorld(t, 300, 8, batches)
	st, err := w.InitialStore()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(2)
	hub := NewEngineHub(st, eng)
	ctx := context.Background()
	ids := make([]int64, len(reqs))
	for i, req := range reqs {
		ids[i], _ = mustSubscribe(t, hub, req)
	}
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(base engine.Request) {
			defer wg.Done()
			variants := []engine.Request{base, base, base, base, base}
			variants[0].Kind = engine.KindUQ31
			variants[1].Kind = engine.KindUQ32
			variants[2].Kind, variants[2].X = engine.KindUQ33, 0.3
			variants[3].Kind, variants[3].K = engine.KindUQ41, 2
			variants[4].Kind, variants[4].T = engine.KindAllNNAt, base.Tb+1
			for !stop.Load() {
				for _, req := range variants {
					if _, err := eng.Do(ctx, st, req); err != nil &&
						!errors.Is(err, engine.ErrUnknownOID) && !errors.Is(err, mod.ErrNotFound) {
						t.Errorf("%s: %v", req.Kind, err)
						return
					}
				}
			}
		}(reqs[g])
	}
	for b := 0; b < batches; b++ {
		batch, err := w.StepSized(4, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := hub.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if s := hub.Stats(); s.Patched == 0 {
		t.Fatalf("nothing was patched: %+v", s)
	}
	for i, req := range reqs {
		checkFresh(t, hub, st, ids[i], req)
	}
}
