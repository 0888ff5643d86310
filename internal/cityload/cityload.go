// Package cityload is the city-scale churn harness: a seeded, open-loop
// stochastic load generator that drives Poisson arrivals of plan
// revisions, tag flips, retirements, one-shot queries, and
// subscribe/unsubscribe churn over fleet-like motion (the simtest world,
// which reuses the paper's workload kinematics) against a live serving
// topology — the single-engine continuous hub or a K-shard router hub.
//
// The harness follows feesim's load-generation discipline: every stream
// (arrival counts, churn picks, per-worker query schedules) draws from
// its own seeded *rand.Rand (simtest.Rands), so a run is reproducible at
// any worker count, and arrival counts per tick are Poisson variates
// drawn by inverse-CDF (simtest.Poisson).
//
// It reports sustained updates/s through the live layer (apply + WAL-free
// dirty-set filtering + the re-evaluations the batches force) and the
// p50/p99 latency of one-shot queries served between batches, and it
// keeps the repo's correctness currency: at scripted spot-check ticks,
// standing answers are compared byte-for-byte against a fresh engine run
// on a snapshot of the world's truth.
package cityload

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/simtest"
	"repro/internal/textidx"
)

// Config sizes one city run. Rates are mean arrivals per tick.
type Config struct {
	Seed    int64
	N       int     // fleet size
	Subs    int     // standing subscription population
	Ticks   int     // load ticks (the simulated clock advances Span-8 over the run)
	Workers int     // concurrent query workers
	Shards  int     // 0 = single-engine hub, else a K-shard router hub
	R       float64 // shared uncertainty radius

	UpdateRate float64 // plan revisions per tick
	FlipRate   float64 // tag flips per tick
	RetireRate float64 // retirements per tick (each re-enters two ticks later)
	QueryRate  float64 // one-shot queries per tick, split across workers
	ChurnRate  float64 // unsubscribe+resubscribe pairs per tick

	// Shapes bounds the number of distinct standing questions the
	// subscription population spreads over (0 = min(Subs, 48)). A city's
	// standing load is many subscribers per question, not a distinct
	// query per subscriber, and the pool is what makes a 10^3-subscriber
	// run tractable: per ingest batch the hub evaluates at most one
	// backend query per distinct dirty shape, with every other subscriber
	// on that shape refreshed by dirty-set sharing.
	Shapes int

	SpotChecks int // standing answers byte-checked per spot-check tick
}

// DefaultConfig returns a small, fast city (the test/smoke shape); the
// committed BENCH_city.json rows use the figures-driven scale (N>=1e5).
func DefaultConfig(seed int64) Config {
	return Config{
		Seed: seed, N: 2000, Subs: 96, Ticks: 10, Workers: 4, R: 0.5,
		UpdateRate: 40, FlipRate: 6, RetireRate: 3, QueryRate: 24, ChurnRate: 3,
		SpotChecks: 8,
	}
}

// Row is one city run's report.
type Row struct {
	Topology string
	Shards   int
	Seed     int64
	N        int
	Subs     int
	Ticks    int

	Updates  int // total updates ingested (revisions+flips+retires+re-entries+inserts)
	Retires  int // retirements among them
	SubChurn int // unsubscribe+resubscribe pairs
	Queries  int // one-shot queries timed

	UpdatesPerSec float64       // sustained: updates / total hub Ingest wall
	IngestWall    time.Duration // total hub Ingest wall
	QueryP50      time.Duration
	QueryP99      time.Duration

	Evals  uint64 // hub evaluations across the run
	Skips  uint64 // refreshes the dirty set proved unnecessary
	Shared uint64 // refreshes satisfied by another subscription's evaluation

	Equal      bool // every spot check byte-identical to a fresh snapshot re-query
	SpotChecks int  // spot comparisons performed
}

// requests builds the standing population by spreading subs subscribers
// round-robin over a pool of `shapes` distinct questions on the
// churn-immune OID prefix: staggered short windows across the horizon,
// rotating kinds, tag-filtered variants, and whole-horizon retrievals.
// Every fifth subscriber additionally stands on the pool's first shape
// (one shared "hot" question — many subscribers watching the same query,
// the skew dirty-set sharing exists for).
func requests(subs, shapes int, qoids []int64) []engine.Request {
	avail := &textidx.Predicate{All: []string{"available"}}
	anyOf := &textidx.Predicate{Any: []string{"available", "ev"}}
	pool := make([]engine.Request, 0, shapes)
	for i := 0; len(pool) < shapes; i++ {
		q := qoids[i%len(qoids)]
		tgt := qoids[(i+1)%len(qoids)]
		tb := float64((i * 7) % 48)
		te := tb + 9
		switch i % 6 {
		case 0:
			pool = append(pool, engine.Request{Kind: engine.KindUQ31, QueryOID: q, Tb: tb, Te: te})
		case 1:
			pool = append(pool, engine.Request{Kind: engine.KindUQ33, QueryOID: q, Tb: tb, Te: te, X: 0.25})
		case 2:
			pool = append(pool, engine.Request{Kind: engine.KindUQ11, QueryOID: q, Tb: tb, Te: te, OID: tgt})
		case 3:
			pool = append(pool, engine.Request{Kind: engine.KindUQ31, QueryOID: q, Tb: tb, Te: te, Where: avail})
		case 4:
			pool = append(pool, engine.Request{Kind: engine.KindUQ41, QueryOID: q, Tb: tb, Te: te, K: 2, Where: anyOf})
		default:
			pool = append(pool, engine.Request{Kind: engine.KindUQ31, QueryOID: q, Tb: 0, Te: simtest.Span})
		}
	}
	reqs := make([]engine.Request, 0, subs)
	for i := 0; len(reqs) < subs; i++ {
		if i%5 == 4 {
			reqs = append(reqs, pool[0])
			continue
		}
		reqs = append(reqs, pool[i%len(pool)])
	}
	return reqs
}

// answerKey renders the answer-bearing fields of a result (Explain
// legitimately differs between topologies).
func answerKey(res engine.Result) (string, error) {
	b, err := json.Marshal(struct {
		Kind   engine.Kind       `json:"kind"`
		IsBool bool              `json:"is_bool"`
		Bool   bool              `json:"bool"`
		OIDs   []int64           `json:"oids"`
		Pairs  map[int64][]int64 `json:"pairs"`
		Err    string            `json:"err,omitempty"`
	}{res.Kind, res.IsBool, res.Bool, res.OIDs, res.Pairs, errString(res.Err)})
	return string(b), err
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Run executes one city under the configured topology.
func Run(cfg Config) (Row, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.SpotChecks <= 0 {
		cfg.SpotChecks = 8
	}
	row := Row{Topology: "single", Shards: cfg.Shards, Seed: cfg.Seed, N: cfg.N, Subs: cfg.Subs, Ticks: cfg.Ticks, Equal: true}
	if cfg.Shards > 0 {
		row.Topology = fmt.Sprintf("shard%d", cfg.Shards)
	}

	// The query population stands on a churn-immune OID prefix: large
	// enough for variety, never retired by the scripted churn (the
	// identity checks would otherwise race the TTL sweeps).
	guard := 64
	if guard > cfg.N/4 {
		guard = cfg.N / 4
	}
	wcfg := simtest.Config{
		Seed: cfg.Seed, N: cfg.N, Held: 4, R: cfg.R,
		Steps: cfg.Ticks, Protect: guard,
	}
	w, err := simtest.NewWorld(wcfg)
	if err != nil {
		return row, err
	}
	store, err := w.InitialStore()
	if err != nil {
		return row, err
	}
	store.BuildIndex(0)

	// Topology under test: the hub ingests; oneShot serves ad-hoc queries.
	var hub *continuous.Hub
	var oneShot func(context.Context, engine.Request) (engine.Result, error)
	if cfg.Shards == 0 {
		eng := engine.New(0)
		hub = continuous.NewEngineHub(store, eng)
		oneShot = func(ctx context.Context, req engine.Request) (engine.Result, error) {
			return eng.Do(ctx, store, req)
		}
	} else {
		router, err := cluster.NewLocalCluster(store, cfg.Shards, cluster.Options{})
		if err != nil {
			return row, err
		}
		hub = cluster.NewRouterHub(router)
		oneShot = router.Do
	}

	shapes := cfg.Shapes
	if shapes <= 0 {
		shapes = 48
	}
	if shapes > cfg.Subs {
		shapes = cfg.Subs
	}

	ctx := context.Background()
	reqs := requests(cfg.Subs, shapes, w.ProtectedOIDs())
	// subIDs is shared between the tick loop (churn rewrites slots) and
	// the background poller; subMu covers every slot access.
	var subMu sync.Mutex
	subIDs := make([]int64, len(reqs))
	for i, req := range reqs {
		id, _, err := hub.Subscribe(ctx, req)
		if err != nil {
			return row, fmt.Errorf("subscribe %d (%s): %w", i, req.Kind, err)
		}
		subIDs[i] = id
	}
	subAt := func(k int) int64 {
		subMu.Lock()
		defer subMu.Unlock()
		return subIDs[k]
	}

	// Independent seeded streams, feesim-style: arrival counts, churn
	// picks, spot-check picks, and one per query worker.
	metaRngs := simtest.Rands(cfg.Seed^0xc17b, 3)
	arrivals, churn, spot := metaRngs[0], metaRngs[1], metaRngs[2]
	workerRngs := simtest.Rands(cfg.Seed^0x90b5, cfg.Workers)
	latencies := make([][]time.Duration, cfg.Workers)

	// A background poller keeps standing-answer reads concurrent with
	// everything else, as live clients would.
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = hub.Answer(subAt(i % len(subIDs)))
			_ = hub.Stats()
		}
	}()
	defer func() {
		close(stop)
		pollWG.Wait()
	}()

	spotTicks := map[int]bool{cfg.Ticks / 3: true, 2 * cfg.Ticks / 3: true, cfg.Ticks - 1: true}
	for tick := 0; tick < cfg.Ticks; tick++ {
		// Subscribe/unsubscribe churn: standing slots drop and re-register
		// the same request (a new subscriber taking over the standing
		// question), keeping the population size constant.
		for j := simtest.Poisson(churn, cfg.ChurnRate); j > 0; j-- {
			k := churn.Intn(len(subIDs))
			hub.Unsubscribe(subAt(k))
			id, _, err := hub.Subscribe(ctx, reqs[k])
			if err != nil {
				return row, fmt.Errorf("resubscribe %d: %w", k, err)
			}
			subMu.Lock()
			subIDs[k] = id
			subMu.Unlock()
			row.SubChurn++
		}

		// Poisson-sized mutation batch through the scripted world.
		batch, err := w.StepSized(
			simtest.Poisson(arrivals, cfg.UpdateRate),
			simtest.Poisson(arrivals, cfg.FlipRate),
			simtest.Poisson(arrivals, cfg.RetireRate),
		)
		if err != nil {
			return row, err
		}
		for _, u := range batch {
			if u.Retire {
				row.Retires++
			}
		}
		row.Updates += len(batch)
		t0 := time.Now()
		if _, _, err := hub.Ingest(ctx, batch); err != nil {
			return row, fmt.Errorf("tick %d: ingest: %w", tick, err)
		}
		row.IngestWall += time.Since(t0)

		// One-shot query load: each worker runs its own Poisson-drawn
		// share on its own stream, concurrently with its siblings (and
		// the background poller).
		var wg sync.WaitGroup
		errs := make([]error, cfg.Workers)
		for wi := 0; wi < cfg.Workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				rng := workerRngs[wi]
				for q := simtest.Poisson(rng, cfg.QueryRate/float64(cfg.Workers)); q > 0; q-- {
					req := reqs[rng.Intn(len(reqs))]
					t := time.Now()
					if _, err := oneShot(ctx, req); err != nil {
						errs[wi] = fmt.Errorf("worker %d (%s): %w", wi, req.Kind, err)
						return
					}
					latencies[wi] = append(latencies[wi], time.Since(t))
				}
			}(wi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return row, err
			}
		}

		// Spot checks: standing answers vs a fresh engine on a snapshot
		// of the truth — byte identity under churn, measured, not assumed.
		if spotTicks[tick] {
			snap, err := w.SnapshotStore()
			if err != nil {
				return row, err
			}
			fresh := engine.New(0)
			for j := 0; j < cfg.SpotChecks; j++ {
				k := spot.Intn(len(subIDs))
				live, err := hub.Answer(subAt(k))
				if err != nil {
					return row, err
				}
				want, err := fresh.Do(ctx, snap, reqs[k])
				if err != nil {
					return row, fmt.Errorf("spot tick %d sub %d (%s): fresh: %w", tick, k, reqs[k].Kind, err)
				}
				got, wantKey, err := spotKeys(live, want)
				if err != nil {
					return row, err
				}
				if got != wantKey {
					row.Equal = false
				}
				row.SpotChecks++
			}
		}
	}

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	row.Queries = len(all)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		row.QueryP50 = all[len(all)/2]
		p99 := (len(all) * 99) / 100
		if p99 >= len(all) {
			p99 = len(all) - 1
		}
		row.QueryP99 = all[p99]
	}
	if row.IngestWall > 0 {
		row.UpdatesPerSec = float64(row.Updates) / row.IngestWall.Seconds()
	}
	stats := hub.Stats()
	row.Evals, row.Skips, row.Shared = stats.Evals, stats.Skips, stats.Shared
	return row, nil
}

func spotKeys(live, want engine.Result) (string, string, error) {
	got, err := answerKey(live)
	if err != nil {
		return "", "", err
	}
	wantKey, err := answerKey(want)
	if err != nil {
		return "", "", err
	}
	return got, wantKey, nil
}
