package gateway

// Metrics: the gateway's Prometheus families over internal/metrics. Every
// label set here is bounded by configuration or by the protocol — route
// patterns, status codes, the closed engine.Kind set, error codes, shard
// names/indices — never by request payloads (no per-OID or per-query
// labels), so exposition size cannot be driven by traffic content.

import (
	"strconv"
	"time"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// knownKinds is the closed set of engine kinds usable as a metric label.
// Anything else (a typo'd kind from a client) collapses to "invalid" so
// clients cannot mint new series.
var knownKinds = map[engine.Kind]bool{
	engine.KindUQ11: true, engine.KindUQ12: true, engine.KindUQ13: true,
	engine.KindUQ21: true, engine.KindUQ22: true, engine.KindUQ23: true,
	engine.KindUQ31: true, engine.KindUQ32: true, engine.KindUQ33: true,
	engine.KindUQ41: true, engine.KindUQ42: true, engine.KindUQ43: true,
	engine.KindNNAt: true, engine.KindRankAt: true,
	engine.KindAllNNAt: true, engine.KindAllRankAt: true,
	engine.KindThreshold: true, engine.KindAllThreshold: true,
	engine.KindAllPairs: true, engine.KindReverse: true,
}

func kindLabel(k engine.Kind) string {
	if knownKinds[k] {
		return string(k)
	}
	return "invalid"
}

// Metrics aggregates the gateway's metric families on one registry. All
// methods are safe on a nil receiver (metrics disabled) and for
// concurrent use, so handler code records unconditionally.
type Metrics struct {
	reg *metrics.Registry

	requests     *metrics.CounterVec   // gateway_requests_total{route,code}
	latency      *metrics.HistogramVec // gateway_request_seconds{route}
	queries      *metrics.CounterVec   // gateway_query_requests_total{kind,outcome,filtered}
	queryLatency *metrics.HistogramVec // gateway_query_seconds{kind}

	pruneCandidates *metrics.Counter
	pruneSurvivors  *metrics.Counter
	memoHits        *metrics.Counter
	degraded        *metrics.Counter
	missingShards   *metrics.CounterVec
	shardWall       *metrics.HistogramVec
	shardRetries    *metrics.CounterVec

	streams *metrics.Gauge
	events  *metrics.Counter
	resumes *metrics.Counter
	gaps    *metrics.Counter

	ingestUpdates *metrics.Counter
	ingestBatches *metrics.CounterVec
}

// NewMetrics registers the gateway families on reg (a fresh registry when
// nil) and returns the recording surface.
func NewMetrics(reg *metrics.Registry) *Metrics {
	if reg == nil {
		reg = metrics.New()
	}
	m := &Metrics{reg: reg}
	m.requests = reg.CounterVec("gateway_requests_total",
		"HTTP requests served, by route pattern and status code.", "route", "code")
	m.latency = reg.HistogramVec("gateway_request_seconds",
		"End-to-end HTTP request latency by route pattern.", metrics.DefBuckets, "route")
	m.queries = reg.CounterVec("gateway_query_requests_total",
		"Engine requests evaluated via /v1/query and /v1/batch, by kind, outcome, and whether a tag predicate filtered the request.",
		"kind", "outcome", "filtered")
	m.queryLatency = reg.HistogramVec("gateway_query_seconds",
		"Engine evaluation wall time (Explain.Wall) by kind.", metrics.DefBuckets, "kind")
	m.pruneCandidates = reg.Counter("engine_prune_candidates_total",
		"Candidate objects considered across all evaluated requests (Explain.Candidates).")
	m.pruneSurvivors = reg.Counter("engine_prune_survivors_total",
		"Candidates surviving the index pre-pass across all evaluated requests (Explain.Survivors).")
	m.memoHits = reg.Counter("engine_memo_hits_total",
		"Requests whose envelope preprocessing was reused from the engine memo.")
	m.degraded = reg.Counter("cluster_degraded_answers_total",
		"Answers merged without every shard (degraded serving).")
	m.missingShards = reg.CounterVec("cluster_missing_shards_total",
		"Times a named shard's reply was missing from a degraded merge.", "shard")
	m.shardWall = reg.HistogramVec("cluster_shard_wall_seconds",
		"Per-shard scatter wall time by shard index.", metrics.DefBuckets, "shard")
	m.shardRetries = reg.CounterVec("cluster_shard_retries_total",
		"Remote shard call retries by shard name.", "shard")
	m.streams = reg.Gauge("gateway_subscribe_streams",
		"Live SSE subscription streams currently attached.")
	m.events = reg.Counter("gateway_subscribe_events_total",
		"Diff events written to SSE streams (including replayed ones).")
	m.resumes = reg.Counter("gateway_subscribe_resumes_total",
		"SSE streams that resumed a detached subscription via from_seq/Last-Event-ID.")
	m.gaps = reg.Counter("gateway_subscribe_gaps_total",
		"Resume attempts refused because the replay window no longer covers from_seq.")
	m.ingestUpdates = reg.Counter("gateway_ingest_updates_total",
		"Live trajectory updates accepted via /v1/ingest.")
	m.ingestBatches = reg.CounterVec("gateway_ingest_batches_total",
		"Ingest batches by outcome.", "outcome")
	return m
}

// Registry returns the backing registry (nil on a nil Metrics).
func (m *Metrics) Registry() *metrics.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// ObserveHub exports a hub's cumulative dirty-set counters
// (ingested/evals/skips, and the evaluations split into those that
// continued a maintained answer and those rebuilt from scratch) as counter
// funcs; pass hub.Stats.
func (m *Metrics) ObserveHub(stats func() continuous.Stats) {
	if m == nil || stats == nil {
		return
	}
	m.reg.CounterFunc("hub_ingested_updates_total",
		"Live updates applied through the continuous-query hub.",
		func() float64 { return float64(stats().Ingested) })
	m.reg.CounterFunc("hub_evals_total",
		"Subscription re-evaluations triggered by ingests.",
		func() float64 { return float64(stats().Evals) })
	m.reg.CounterFunc("hub_skips_total",
		"Subscription re-evaluations the dirty test proved unnecessary.",
		func() float64 { return float64(stats().Skips) })
	m.reg.CounterFunc("hub_patched_total",
		"Re-evaluations that continued the standing question's maintained answer.",
		func() float64 { return float64(stats().Patched) })
	m.reg.CounterFunc("hub_rebuilt_total",
		"Re-evaluations derived from scratch.",
		func() float64 { return float64(stats().Rebuilt) })
}

// ObserveWAL exports the write-ahead log's cumulative operation counters.
func (m *Metrics) ObserveWAL(stats func() wal.Stats) {
	if m == nil || stats == nil {
		return
	}
	m.reg.CounterFunc("wal_appends_total",
		"Update batches appended to the write-ahead log.",
		func() float64 { return float64(stats().Appends) })
	m.reg.CounterFunc("wal_appended_bytes_total",
		"Bytes appended to the write-ahead log.",
		func() float64 { return float64(stats().AppendedBytes) })
	m.reg.CounterFunc("wal_snapshots_total",
		"Snapshots taken by the write-ahead log.",
		func() float64 { return float64(stats().Snapshots) })
}

// ShardRetryHook returns a cluster.RemoteOptions.OnRetry callback feeding
// cluster_shard_retries_total. Nil when metrics are disabled.
func (m *Metrics) ShardRetryHook() func(name string, attempt int, err error) {
	if m == nil {
		return nil
	}
	return func(name string, _ int, _ error) {
		m.shardRetries.With(name).Inc()
	}
}

func (m *Metrics) recordHTTP(route string, code int, dur time.Duration) {
	if m == nil {
		return
	}
	if route == "" {
		route = "unmatched"
	}
	m.requests.With(route, strconv.Itoa(code)).Inc()
	m.latency.With(route).Observe(dur.Seconds())
}

// recordQuery folds one evaluated request's Explain into the engine- and
// cluster-level families. outcome is "ok" or the typed error code;
// filtered reports whether the request carried a tag predicate (a closed
// two-value label — the predicate's content never reaches a label).
func (m *Metrics) recordQuery(res engine.Result, filtered bool) {
	if m == nil {
		return
	}
	outcome := "ok"
	if res.Err != nil {
		_, outcome = errStatus(res.Err)
	}
	kind := kindLabel(res.Kind)
	m.queries.With(kind, outcome, strconv.FormatBool(filtered)).Inc()
	m.queryLatency.With(kind).Observe(res.Explain.Wall.Seconds())
	ex := res.Explain
	m.pruneCandidates.Add(float64(ex.Candidates))
	m.pruneSurvivors.Add(float64(ex.Survivors))
	if ex.MemoHit {
		m.memoHits.Inc()
	}
	if ex.Degraded {
		m.degraded.Inc()
	}
	for _, name := range ex.MissingShards {
		m.missingShards.With(name).Inc()
	}
	for i, se := range ex.ShardExplains {
		m.shardWall.With(strconv.Itoa(i)).Observe(se.Wall.Seconds())
	}
}

func (m *Metrics) recordIngest(updates int, err error) {
	if m == nil {
		return
	}
	outcome := "ok"
	if err != nil {
		_, outcome = errStatus(err)
	}
	m.ingestBatches.With(outcome).Inc()
	if err == nil {
		m.ingestUpdates.Add(float64(updates))
	}
}

func (m *Metrics) streamAttached() { m.adjStreams(1) }
func (m *Metrics) streamDetached() { m.adjStreams(-1) }

func (m *Metrics) adjStreams(d float64) {
	if m == nil {
		return
	}
	m.streams.Add(d)
}

func (m *Metrics) countEvents(n int) {
	if m == nil {
		return
	}
	m.events.Add(float64(n))
}

func (m *Metrics) countResume() {
	if m == nil {
		return
	}
	m.resumes.Inc()
}

func (m *Metrics) countGap() {
	if m == nil {
		return
	}
	m.gaps.Inc()
}
