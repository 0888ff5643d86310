package main

// The benchmark's contract in one place: the metric names, units and
// regression bounds BENCHMARK.json publishes, and the four workloads with
// their sizes. smoke_test.go asserts this file and BENCHMARK.json agree.

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Watch is the bound the issue asked for. The reference box cannot hold
	// it (CALIBRATION.md), so BENCHMARK.json does not publish it; -compare
	// reports a metric that worsened by more than Watch but less than Bound
	// as "watch" instead of "ok".
	Watch float64
	// Count marks a metric derived only from counters of the program: it
	// must repeat exactly between two runs with the same seed
	// (-verify-counts).
	Count bool
}

// endToEnd is what a caller of the MOD sees. Every workload reports all
// of them, always with tracing off. The time-based bounds are the widest
// the contract allows because of the reference box, not the program: with
// no CPU reported stolen, two ten-seed sets of one commit taken half an
// hour apart differ by up to 24 % on sharded_wire, wall and CPU time alike
// (CALIBRATION.md). The two memory metrics, which the host does not move,
// are held to twice their widest spread across seeds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Watch: 0.10},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Watch: 0.10},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Watch: 0.15},
	{Name: "query_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Watch: 0.10},
	{Name: "ingest_batch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Watch: 0.10},
	{Name: "ingest_updates_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Watch: 0.10},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25, Watch: 0.07},
	{Name: "alloc_kb_per_op", Unit: "kB", Better: "lower", Bound: 0.10, Watch: 0.03},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.10, Watch: 0.05},
}

// perLayer is the traced run's report, one block per layer, outside in.
var perLayer = []metricDef{
	{Name: "sindex.index_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "mod.seg_rebuilds", Unit: "count", Better: "lower", Count: true},
	{Name: "mod.seg_incremental", Unit: "count", Better: "higher", Count: true},

	{Name: "prune.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "prune.bounds_ms", Unit: "ms", Better: "lower"},
	{Name: "prune.survivors_ms", Unit: "ms", Better: "lower"},
	{Name: "prune.survivor_ratio", Unit: "ratio", Better: "lower", Count: true},
	{Name: "prune.probes_per_query", Unit: "count", Better: "lower", Count: true},
	{Name: "prune.alloc_kb_per_query", Unit: "kB", Better: "lower"},

	{Name: "envelope.distfuncs_ms", Unit: "ms", Better: "lower"},
	{Name: "envelope.lower_ms", Unit: "ms", Better: "lower"},
	{Name: "envelope.intervals_per_query", Unit: "count", Better: "lower", Count: true},
	{Name: "envelope.alloc_kb_per_query", Unit: "kB", Better: "lower"},

	{Name: "queries.build_ms", Unit: "ms", Better: "lower"},
	{Name: "queries.refine_ms", Unit: "ms", Better: "lower"},
	{Name: "queries.refine_alloc_kb_per_query", Unit: "kB", Better: "lower"},

	{Name: "textidx.match_ms", Unit: "ms", Better: "lower"},

	{Name: "engine.do_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.do_ms_filtered", Unit: "ms", Better: "lower"},
	{Name: "engine.do_ms_rank2", Unit: "ms", Better: "lower"},
	{Name: "engine.memo_hit_ratio", Unit: "ratio", Better: "higher", Count: true},
	{Name: "engine.unattributed_ratio", Unit: "ratio", Better: "lower"},

	{Name: "wal.append_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_update", Unit: "B", Better: "lower", Count: true},

	{Name: "mod.apply_ms_per_batch", Unit: "ms", Better: "lower"},

	{Name: "continuous.ingest_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "continuous.dirty_self_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "continuous.evaluate_ms_per_eval", Unit: "ms", Better: "lower"},
	{Name: "continuous.profile_ms_per_eval", Unit: "ms", Better: "lower"},
	{Name: "continuous.evals_per_batch", Unit: "count", Better: "lower", Count: true},
	{Name: "continuous.skip_ratio", Unit: "ratio", Better: "higher", Count: true},
	{Name: "continuous.shared_ratio", Unit: "ratio", Better: "higher", Count: true},
	{Name: "continuous.events_per_batch", Unit: "count", Better: "lower", Count: true},

	{Name: "gateway.query_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.ingest_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.resp_bytes_per_query", Unit: "B", Better: "lower"}, // not a count: the body carries explain.wall_ns

	{Name: "cluster.router_do_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.bounds_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.survivors_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.refine_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.merge_self_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.shard_skew_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.round_trips_per_query", Unit: "count", Better: "lower", Count: true},
	{Name: "cluster.wire_bytes_per_query", Unit: "B", Better: "lower"}, // likewise: shard replies carry wall times
	{Name: "cluster.ingest_ms_per_batch", Unit: "ms", Better: "lower"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// referenceSeconds is the --seconds value the round counts below are
// calibrated for (BENCHMARK.json's run_seconds). Another --seconds scales
// the round count, never the work per round, so op counts stay a pure
// function of (workload, seconds).
const referenceSeconds = 20

// burst selects the per-round one-shot query mix.
type burst int

const (
	burstCold  burst = iota // 4 queries, each on a never-repeated (query OID, window)
	burstHot                // 16 requests on one (query OID, window)
	burstChurn              // 4 cold queries beside the standing subscriptions
)

// workloadSpec sizes one workload. The script it describes is generated
// from the seed during preparation and only replayed while measuring.
type workloadSpec struct {
	Name string
	Why  string

	Wire bool // gateway -> router -> 2 remote shards over loopback TCP, instead of the embedded engine

	N       int // fleet size
	Rounds  int // measured rounds at referenceSeconds
	Warmup  int // warm-up rounds replayed inside set-up
	Batches int // ingest batches per round

	Revisions int // plan revisions per batch
	Flips     int // tag flips per batch
	Retires   int // retirements per batch (the gateway's ingest body has no retire field, so wire scripts keep 0)

	Subs   int // standing subscribers
	Shapes int // distinct standing questions they spread over

	Burst burst
}

// The cold and wire workloads share one spec so that their fleets and
// scripts are identical by construction: sharded_wire minus adhoc_cold on
// any metric is the cost of codecs, sockets, the bound exchange and the
// merge.
func coldSpec(name, why string, wire bool) workloadSpec {
	return workloadSpec{
		Name: name, Why: why, Wire: wire,
		N: 3000, Rounds: 240, Warmup: 32, Batches: 1,
		Revisions: 200, Flips: 40,
		Burst: burstCold,
	}
}

var workloads = []workloadSpec{
	coldSpec("adhoc_cold",
		"every query is a memo miss on an embedded engine with no subscriptions: index, prune, envelope build and refine do all the work, and ingest is pure wal + mod + index chaining",
		false),
	{
		Name: "variants_hot",
		Why:  "16 requests share one (query, window) preprocessing per round: refine kernels and the engine memo dominate, the pre-pass and envelope build are 1/16 of requests",
		N:    3000, Rounds: 260, Warmup: 40, Batches: 2,
		Revisions: 250, Flips: 46, Retires: 4,
		Burst: burstHot,
	},
	{
		Name: "standing_churn",
		Why:  "120 subscribers on 24 standing questions beside small update batches: the dirty test, re-evaluation, sharing and diffing are the ingest cost, wal and mod are invisible",
		N:    2000, Rounds: 150, Warmup: 16, Batches: 1,
		Revisions: 4, Flips: 1, Retires: 1,
		Subs: 120, Shapes: 24,
		Burst: burstChurn,
	},
	coldSpec("sharded_wire",
		"the adhoc_cold fleet and script through the production topology (HTTP gateway, router, 2 remote shards over loopback TCP): the difference to adhoc_cold is the wire and merge cost",
		true),
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
