// Package repro is the public API of this reproduction of Trajcevski,
// Tamassia, Ding, Scheuermann and Cruz, "Continuous Probabilistic
// Nearest-Neighbor Queries for Uncertain Trajectories" (EDBT 2009).
//
// The facade re-exports the stable surface of the internal packages so
// downstream users never import repro/internal/...:
//
//   - trajectories and the MOD store (Section 2.1),
//   - the IPAC-NN tree (Sections 1, 3.2 — the paper's core contribution),
//   - the unified query API: one Request descriptor covering every
//     continuous query variant of Section 4 (and the Section 7
//     extensions), answered by Engine.Do / Engine.DoBatch with context
//     cancellation and per-query Explain provenance,
//   - the sharded serving layer: NewCluster / NewClusterRouter stand up a
//     Router that answers the same Request contract over K shards (local
//     or remote, objects placed by OID hash as SplitStore places them),
//     byte-identically to a single engine via a two-phase NN bound
//     exchange,
//   - spatio-textual queries: trajectories carry attribute tag sets
//     (Store.SetTags, Update.Tags) — data beside the plans, not a second
//     index: the pre-pass restricts its snapshot to the matching objects
//     and prunes on the one spatial index — and any Request restricted by
//     a tag Predicate (Request.Where) answers byte-identically to running
//     the plain request over the matching sub-MOD — in UQL, `WHERE tags
//     CONTAINS ...`,
//   - live ingestion + continuous queries: stores accept plan revisions
//     and extensions (Update / Store.ApplyUpdates) with incremental index
//     maintenance, and a LiveHub (NewLiveHub / NewClusterHub) keeps
//     standing Request subscriptions fresh across ingest batches, emitting
//     diff events and re-evaluating only what an update can actually
//     affect,
//   - durability and fault tolerance: a write-ahead log with periodic
//     snapshots and byte-identical crash recovery (CreateWAL / OpenWAL /
//     RecoverWAL, wired into cmd/modserver via -wal-dir / -resume),
//     per-subscription event replay behind LiveHub.Replay, and a cluster
//     serving layer that retries transient shard failures (three tries,
//     with a jittered backoff of 10 ms, then 20 ms) or, with
//     ClusterOptions.Degraded, answers from the reachable shards with
//     Explain.Degraded provenance,
//   - production serving: the line-protocol server and client
//     (NewModServer / DialModServer, TLS and bearer-token capable) and
//     the HTTP+JSON gateway (NewGateway) — typed-error JSON responses,
//     SSE subscriptions with replay-backed resume, a committed OpenAPI
//     spec (OpenAPISpec), and a Prometheus text exposition
//     (NewGatewayMetrics); cmd/modserver serves both, and
//     docker-compose.yml stands up a 2-shard TLS cluster behind the
//     gateway; both front doors are codecs over one live-serving core
//     (internal/serve), so journaling, fan-out order and from_seq resume
//     behave identically on either,
//   - the UQL query language (the SQL sketch of Section 4): every
//     statement compiles to a Request (CompileUQL), its probability bound
//     (`> p`, CertainNN) carried in Request.P, and
//   - the probability of being the nearest neighbor (Section 3.1's P^NN,
//     over the location pdfs of Section 2.2): a Request with 0 < P < 1
//     asks for it and is answered with the store's own pdf
//     (Store.PDF: uniform, bounded Gaussian or Epanechnikov), and a
//     QueryProcessor (Engine.ProcessorWhereCtx) samples every object's
//     series at once (ProbabilityTable; ThresholdConfig.PDF picks the
//     pdf there, a uniform disk when nil).
//
// Quickstart — every query is a Request, every answer a Result:
//
//	store, _ := repro.NewUniformStore(0.5)                  // r = 0.5 mi
//	trs, _ := repro.GenerateWorkload(repro.DefaultWorkload(42), 1000)
//	_ = store.InsertAll(trs)
//	eng := repro.NewEngine(0)                               // one worker per CPU
//	res, err := eng.Do(ctx, store, repro.Request{
//		Kind: repro.KindUQ31, QueryOID: 1, Tb: 0, Te: 60,   // "who can be NN of Tr1 this hour?"
//	})
//	fmt.Println(res.OIDs, res.Explain.Survivors, res.Explain.Wall)
//
// Batches share preprocessing per (query trajectory, window) and fan
// whole-MOD evaluation across the worker pool; cancel ctx to stop a batch
// between per-object tasks:
//
//	results, err := eng.DoBatch(ctx, store, []repro.Request{
//		{Kind: repro.KindUQ31, QueryOID: 1, Tb: 0, Te: 60},
//		{Kind: repro.KindUQ41, QueryOID: 1, Tb: 0, Te: 60, K: 2},
//	})
//
// The IPAC-NN tree remains the time-parameterized answer structure, read
// off the engine's processor for the (query, window):
//
//	proc, _ := eng.ProcessorWhereCtx(ctx, store, 1, 0, 60, nil)
//	tree, _ := repro.BuildIPACNN(ctx, proc, nil, repro.TreeConfig{MaxLevels: 3})
//	fmt.Println(tree.AnswerAt(30))                          // highest-probability NN at t=30
//
// Served over HTTP, the same Request rides curl — `modserver serve`
// mounts the gateway on a local engine or a shard cluster (see
// docker-compose.yml for the 2-shard TLS deployment and
// EXPERIMENTS.md "Production serving" for the full walkthrough):
//
//	modserver serve -http :8080 -r 0.5 &
//	curl -X POST localhost:8080/v1/ingest \
//	    -d '{"updates":[{"oid":1,"verts":[[0,0,0],[10,10,60]]}]}'
//	curl -X POST localhost:8080/v1/query \
//	    -d '{"kind":"UQ31","query_oid":1,"tb":0,"te":60}'
//	curl -N "localhost:8080/v1/subscribe?kind=UQ31&query_oid=1&tb=0&te=60"
//	curl localhost:8080/metrics
//
// See examples/ for runnable programs, EXPERIMENTS.md for the benchmark
// harness, and CI
// (.github/workflows/ci.yml) gates every push through the Makefile:
// gofmt, go vet, staticcheck, build, the race-detector test suite, and
// benchmark smoke runs including the Engine.Do overhead gate.
package repro

import (
	"context"

	"repro/api/openapi"
	"repro/internal/cluster"
	"repro/internal/continuous"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/envelope"
	"repro/internal/faultinject"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/mod"
	"repro/internal/modserver"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
	"repro/internal/updf"
	"repro/internal/uql"
	"repro/internal/wal"
	"repro/internal/workload"
)

// --- trajectories and stores (Section 2.1) ---

// Vertex is one (x, y, t) sample of a trajectory.
type Vertex = trajectory.Vertex

// Trajectory is a piecewise-linear motion plan with a unique object ID.
type Trajectory = trajectory.Trajectory

// NewTrajectory constructs a validated trajectory.
func NewTrajectory(oid int64, verts []Vertex) (*Trajectory, error) {
	return trajectory.New(oid, verts)
}

// Store is a concurrent Moving Objects Database sharing one uncertainty
// model across its trajectories.
type Store = mod.Store

// PDFSpec describes a serializable location pdf.
type PDFSpec = mod.PDFSpec

// PDF kinds for PDFSpec.
const (
	PDFUniform         = mod.PDFUniform
	PDFBoundedGaussian = mod.PDFBoundedGaussian
	PDFEpanechnikov    = mod.PDFEpanechnikov
)

// NewStore creates a MOD store with the given uncertainty model.
func NewStore(spec PDFSpec) (*Store, error) { return mod.NewStore(spec) }

// NewUniformStore creates a MOD store with the paper's default model:
// uniform location pdf inside a disk of radius r.
func NewUniformStore(r float64) (*Store, error) { return mod.NewUniformStore(r) }

// --- workload (Section 5) ---

// WorkloadConfig parameterizes the random-waypoint generator.
type WorkloadConfig = workload.Config

// DefaultWorkload returns the paper's evaluation setup (40×40 mi²,
// 15-60 mph, 60 min, synchronous velocity changes).
func DefaultWorkload(seed int64) WorkloadConfig { return workload.DefaultConfig(seed) }

// SingleSegmentWorkload is DefaultWorkload without velocity changes.
func SingleSegmentWorkload(seed int64) WorkloadConfig { return workload.SingleSegmentConfig(seed) }

// GenerateWorkload produces n random-waypoint trajectories.
func GenerateWorkload(c WorkloadConfig, n int) ([]*Trajectory, error) {
	return workload.Generate(c, n)
}

// --- location pdfs (Section 2.2) ---

// RadialPDF is a rotationally symmetric location pdf.
type RadialPDF = updf.RadialPDF

// UniformDiskPDF returns the paper's default uniform location pdf.
func UniformDiskPDF(r float64) RadialPDF { return updf.NewUniformDisk(r) }

// BoundedGaussianPDF returns a Gaussian truncated to radius r.
func BoundedGaussianPDF(r, sigma float64) RadialPDF { return updf.NewBoundedGaussian(r, sigma) }

// ConePDF returns the paper's Eq. 7 cone (base radius 2r when modelling
// the convolution of two uniform disks of radius r).
func ConePDF(baseRadius float64) RadialPDF { return updf.NewCone(baseRadius) }

// --- the IPAC-NN tree (Sections 1, 3.2) ---

// TreeConfig tunes IPAC-NN construction.
type TreeConfig = core.Config

// IPACNNTree is the interval tree answering a continuous probabilistic NN
// query.
type IPACNNTree = core.Tree

// TreeNode is one node of the IPAC-NN tree.
type TreeNode = core.Node

// BuildIPACNN runs Algorithm 3 over the processor's query trajectory,
// window and radius — get proc from Engine.ProcessorWhereCtx, which brings
// the index pre-pass, the memo and tag predicates — with the location pdf
// of the descriptors (nil = uniform). ctx bounds the construction,
// descriptor sampling included.
func BuildIPACNN(ctx context.Context, proc *QueryProcessor, pdf RadialPDF, cfg TreeConfig) (*IPACNNTree, error) {
	return core.FromProcessor(ctx, proc, pdf, cfg)
}

// --- continuous query variants (Section 4) ---

// QueryProcessor answers the UQ11..UQ43 query variants after O(N log N)
// envelope preprocessing. Engine.ProcessorWhereCtx returns the memoized,
// index-pruned instance the unified API evaluates against — use that for
// interval-level introspection (PossibleNNIntervals, ProbabilityTable,
// GuaranteedNNIntervals) beyond what a Request expresses.
type QueryProcessor = queries.Processor

// TimeInterval is a closed time interval.
type TimeInterval = envelope.TimeInterval

// ThresholdConfig tunes the continuous threshold-NN queries (the paper's
// Section 7 future-work item): QueryProcessor.ProbabilityTable samples
// P^NN of every object once, and the table answers them: an object's
// Series, the times it is Above a bound, ThresholdNN and ThresholdNNAll.
type ThresholdConfig = queries.ThresholdConfig

// --- the unified query API ---

// Engine is the concurrent query engine, the single execution route of
// the system: every query variant is a Request answered by Do/DoBatch.
// Whole-MOD variants fan per-object candidate checks across a worker
// pool, requests against the same (query trajectory, window) share one
// envelope preprocessing through an LRU memo keyed on the store version,
// and context cancellation is honored between per-object tasks, between
// batch members, and inside the preprocessing. Engines are safe for
// concurrent use and meant to be long-lived (one per server).
type Engine = engine.Engine

// Request is the declarative descriptor of one query — flat and
// JSON-serializable, the contract a shard router or network proxy
// forwards verbatim. See the Kind constants for the variants and
// Request.Normalize for the centralized parameter/window checks, which
// every entry (Do, DoBatch, a router, a hub's Subscribe) runs once. P is the
// probability bound of the Category 1/3 and fixed-time kinds (UQ11-13,
// UQ31-33, NN@, ALLNN@): 0 asks for a possible NN, 0 < P < 1 for sampled
// P^NN at least P (the Section 7 threshold query), and 1 for the certain
// NN.
type Request = engine.Request

// Result is the unified answer envelope: the answer (Bool, OIDs or
// Pairs), the per-query Explain provenance, and the per-request error.
type Result = engine.Result

// Explain is the per-query execution provenance: candidate and prune
// survivor counts, envelope (memo) reuse, worker count, wall time — and,
// on predicate-restricted requests, the textual-vs-spatial candidate
// split (TextualCandidates, SpatialCandidates).
type Explain = engine.Explain

// Predicate restricts a Request to the sub-MOD of objects whose tag
// sets satisfy it (Request.Where): an object matches when it carries
// every All tag, at least one Any tag (when that list is non-empty),
// and none of the Not tags. The answer is byte-identical to running the
// plain request against a store holding only the matching trajectories
// (the query trajectory itself is exempt). At least one list must be
// non-empty; a nil *Predicate means unfiltered. Tags are matched in
// normalized form (Predicate.Normalize: lowercased, sorted, deduplicated),
// which every entry that takes a Request produces once.
type Predicate = textidx.Predicate

// CanonTags canonicalizes a tag set the way stores and predicates do:
// lowercased, sorted, deduplicated. It rejects empty, over-long, or
// whitespace-bearing tags with ErrBadTag.
func CanonTags(tags []string) ([]string, error) { return textidx.CanonTags(tags) }

// Typed error taxonomy of the unified API: one identity per failure,
// matchable with errors.Is across every entry point.
var (
	ErrBadKind      = engine.ErrBadKind
	ErrBadWindow    = engine.ErrBadWindow
	ErrUnknownOID   = engine.ErrUnknownOID
	ErrBadRank      = engine.ErrBadRank
	ErrBadFrac      = engine.ErrBadFrac
	ErrNoEngine     = engine.ErrNoEngine
	ErrBadPredicate = engine.ErrBadPredicate
	ErrBadTag       = textidx.ErrBadTag
)

// QueryKind names a query variant for the engine.
type QueryKind = engine.Kind

// Query kinds: the paper's Section 4 variants, fixed-time instants, and
// the Section 7 all-pairs and reverse extensions. The Section 7 threshold
// query is UQ13/UQ33 with Request.P.
const (
	KindUQ11      = engine.KindUQ11
	KindUQ12      = engine.KindUQ12
	KindUQ13      = engine.KindUQ13
	KindUQ21      = engine.KindUQ21
	KindUQ22      = engine.KindUQ22
	KindUQ23      = engine.KindUQ23
	KindUQ31      = engine.KindUQ31
	KindUQ32      = engine.KindUQ32
	KindUQ33      = engine.KindUQ33
	KindUQ41      = engine.KindUQ41
	KindUQ42      = engine.KindUQ42
	KindUQ43      = engine.KindUQ43
	KindNNAt      = engine.KindNNAt
	KindRankAt    = engine.KindRankAt
	KindAllNNAt   = engine.KindAllNNAt
	KindAllRankAt = engine.KindAllRankAt
	KindAllPairs  = engine.KindAllPairs
	KindReverse   = engine.KindReverse
)

// NewEngine creates a query engine; workers <= 0 means one per CPU. The
// index-accelerated candidate pre-pass is on by default; see EngineOptions.
func NewEngine(workers int) *Engine { return engine.New(workers) }

// EngineOptions tunes engine construction (worker-pool size, and a
// FullScan switch that disables the index candidate pre-pass for
// benchmarking).
type EngineOptions = engine.Options

// NewEngineWith creates a query engine from explicit options.
func NewEngineWith(o EngineOptions) *Engine { return engine.NewWith(o) }

// --- sharded serving (the cluster scatter-gather layer) ---

// Router serves the Engine.Do/DoBatch contract over K shards: requests
// scatter, NN-family kinds run a two-phase bound exchange (shards report
// per-slice envelope upper bounds, the router mins them into a global
// bound, shards sweep survivors against it), and the router refines the
// gathered survivors centrally — answers are byte-identical to a
// single-store engine, with Explain carrying per-shard provenance
// (Shards, ShardExplains).
type Router = cluster.Router

// ClusterShard is one partition of the MOD: in-process (NewLocalShard)
// or a remote modserver (NewRemoteShard).
type ClusterShard = cluster.Shard

// ClusterOptions tunes router construction (refinement engine, degraded
// answers).
type ClusterOptions = cluster.Options

// NewCluster splits a store into n in-process shards and returns a
// router over them — the one-call path from a single store to sharded
// serving:
//
//	router, _ := repro.NewCluster(store, 4, repro.ClusterOptions{})
//	res, _ := router.Do(ctx, repro.Request{Kind: repro.KindUQ31, QueryOID: 1, Tb: 0, Te: 60})
func NewCluster(store *Store, n int, opts ClusterOptions) (*Router, error) {
	return cluster.NewLocalCluster(store, n, opts)
}

// NewClusterRouter builds a router over an explicit shard set (local,
// remote, or mixed). ctx bounds the construction round trips.
func NewClusterRouter(ctx context.Context, shards []ClusterShard, opts ClusterOptions) (*Router, error) {
	return cluster.NewRouter(ctx, shards, opts)
}

// NewLocalShard wraps an in-process store as a shard.
func NewLocalShard(name string, store *Store) ClusterShard {
	return cluster.NewLocalShard(name, store)
}

// NewRemoteShard names a shard served by a modserver at addr (dialed
// lazily; see cmd/modserver for the serving side).
func NewRemoteShard(name, addr string) ClusterShard {
	return cluster.NewRemoteShard(name, addr)
}

// SplitStore partitions a store's contents into n new stores sharing its
// uncertainty model, placing each object by a hash of its OID as a
// cluster router routes it — the loader-side helper for standing up shard
// servers.
func SplitStore(store *Store, n int) ([]*Store, error) {
	return cluster.SplitStore(store, n, cluster.Hash{})
}

// --- live ingestion + continuous queries ---

// Update is one live ingest item: new vertices for an object — a plan
// revision from the first vertex's time on when the object exists (a
// pure extension when it is past the plan end), an insert otherwise.
// Store.ApplyUpdates applies them directly; a LiveHub applies
// them while keeping standing subscriptions fresh. Either way the store
// chains its spatial index forward incrementally, one step per batch.
type Update = mod.Update

// AppliedUpdate describes one applied live update: whether it inserted,
// the time its object's motion changed from, and the superseded and new
// plans.
type AppliedUpdate = mod.Applied

// LiveHub owns standing Request subscriptions over a live MOD: Subscribe
// registers a query and returns its initial answer, Ingest applies an
// update batch and re-evaluates only the subscriptions the batch can
// affect (a dirty set keyed on each query's envelope-zone fingerprint),
// emitting diff events:
//
//	hub := repro.NewLiveHub(store, eng)
//	id, initial, _ := hub.Subscribe(ctx, repro.Request{Kind: repro.KindUQ31, QueryOID: 1, Tb: 0, Te: 60})
//	_, events, _ := hub.Ingest(ctx, []repro.Update{{OID: 7, Verts: newPlan}})
//	// events[i].Added / .Removed diff the standing answers that changed.
type LiveHub = continuous.Hub

// LiveEvent is one subscription's diff after an ingest batch.
type LiveEvent = continuous.Event

// LiveStats counts a hub's re-evaluations versus dirty-set skips, and how
// many of the re-evaluations continued a maintained answer (Patched)
// rather than deriving it from scratch (Rebuilt).
type LiveStats = continuous.Stats

// NewLiveHub mounts a continuous-query hub on a single store + engine
// (nil engine: one worker per CPU).
func NewLiveHub(store *Store, eng *Engine) *LiveHub {
	return continuous.NewEngineHub(store, eng)
}

// NewClusterHub mounts a continuous-query hub on a sharded router:
// ingests route to the owning shards by OID hash, and
// subscription freshness rides the same two-phase bound exchange the
// query path uses — events are byte-identical to a single-store hub over
// the union of the shards.
func NewClusterHub(router *Router) *LiveHub {
	return cluster.NewRouterHub(router)
}

// ErrEventGap reports a replay request behind a truncated event backlog:
// the missed events are gone, so the subscriber must re-read its full
// answer instead of patching diffs.
var ErrEventGap = continuous.ErrEventGap

// --- durability (write-ahead log + crash recovery) ---

// WAL is an open write-ahead log: Append journals each applied ingest
// batch, AfterApply drives the periodic-snapshot policy, and the
// directory recovers byte-identically after a crash. It satisfies the
// modserver journal contract, so a serving process persists every
// acknowledged mutation (see cmd/modserver's -wal-dir / -resume).
type WAL = wal.Log

// WALOptions tunes durability (fsync per append) and the snapshot
// rotation cadence.
type WALOptions = wal.Options

// WALRecoverInfo describes what a recovery found: the snapshot
// generation, batches replayed on top, and whether a torn tail was
// truncated away.
type WALRecoverInfo = wal.RecoverInfo

// CreateWAL initializes dir with a snapshot of store and an empty log.
func CreateWAL(dir string, store *Store, o WALOptions) (*WAL, error) {
	return wal.Create(dir, store, o)
}

// OpenWAL recovers dir and returns the log positioned to continue,
// alongside the recovered store.
func OpenWAL(dir string, o WALOptions) (*WAL, *Store, WALRecoverInfo, error) {
	return wal.Open(dir, o)
}

// RecoverWAL rebuilds the store from dir without opening the log for
// writing — the read-only restart path.
func RecoverWAL(dir string) (*Store, WALRecoverInfo, error) {
	return wal.Recover(dir)
}

// --- fault-tolerant cluster serving ---

// RemoteShardOptions tunes a remote shard's transport: a custom dialer
// (fault injection, proxies), TLS, a bearer token and a retry observer.
type RemoteShardOptions = cluster.RemoteOptions

// NewRemoteShardWith names a shard served by a modserver at addr with
// explicit transport options.
func NewRemoteShardWith(name, addr string, o RemoteShardOptions) ClusterShard {
	return cluster.NewRemoteShardWith(name, addr, o)
}

// ErrShardUnavailable matches (errors.Is) any shard transport failure —
// refused dials, lost connections — after the shard's retry budget is
// spent. ShardUnavailableError carries the shard's identity.
var ErrShardUnavailable = cluster.ErrShardUnavailable

// ShardUnavailableError is the typed unavailability failure: which shard
// (index and name) and the underlying transport error.
type ShardUnavailableError = cluster.ShardUnavailableError

// FaultPlan declares a deterministic fault mix for chaos testing:
// refused dials, dropped connections, injected latency.
type FaultPlan = faultinject.Plan

// FaultInjector dials connections through a FaultPlan — wire its Dial
// into RemoteShardOptions to chaos-test a cluster without real network
// failures.
type FaultInjector = faultinject.Injector

// NewFaultInjector seeds an injector; the same seed and operation
// sequence reproduce the same faults.
func NewFaultInjector(seed int64, plan FaultPlan) *FaultInjector {
	return faultinject.New(seed, plan)
}

// --- production serving (line protocol + HTTP gateway + metrics) ---

// ModServer serves a store over a TCP listener with the line-delimited
// JSON protocol (query/subscribe/ingest plus the insert/trip/delete
// shorthands, each an update batch on the same journaled, subscribed
// path; see internal/modserver's package doc). Wrap the listener with
// tls.NewListener for TLS; Options.Token requires every connection to
// authenticate before its first operation.
type ModServer = modserver.Server

// ModServerOptions hardens a serving process: read/write deadlines,
// request-line caps, the WAL journal hook, and the bearer token.
type ModServerOptions = modserver.Options

// NewModServer builds a line-protocol server over a store and engine
// (nil engine: one worker per CPU).
func NewModServer(store *Store, eng *Engine, o ModServerOptions) *ModServer {
	return modserver.NewServerWith(store, eng, o)
}

// ModClient is the synchronous line-protocol client; open one per
// goroutine.
type ModClient = modserver.Client

// ModDialOptions carries the client-side transport security: a TLS
// config and the bearer token.
type ModDialOptions = modserver.DialOptions

// DialModServer connects to a modserver, completing the TLS handshake
// and token authentication before returning.
func DialModServer(addr string, o ModDialOptions) (*ModClient, error) {
	return modserver.DialWith(addr, o)
}

// Gateway is the production HTTP+JSON serving layer: POST /v1/query and
// /v1/batch carry Request/Result verbatim with the typed error taxonomy
// mapped to status codes, POST /v1/ingest applies live updates through
// the hub (write-ahead durable when a journal is wired), GET
// /v1/subscribe streams subscription diffs as Server-Sent Events with
// Last-Event-ID/from_seq resume, and /metrics, /healthz, /readyz and
// /openapi.yaml serve operations. See internal/gateway and the
// committed api/openapi/gateway.yaml.
type Gateway = gateway.Server

// GatewayOptions configures a Gateway: the backend (EngineGatewayBackend
// or a cluster Router), the live hub, TLS-agnostic token auth, body and
// deadline caps, and the metrics surface.
type GatewayOptions = gateway.Options

// GatewayBackend answers /v1/query and /v1/batch: a local engine
// (EngineGatewayBackend) or a sharded Router.
type GatewayBackend = gateway.Backend

// EngineGatewayBackend adapts a local engine over one store to the
// gateway's backend contract.
type EngineGatewayBackend = gateway.EngineBackend

// NewGateway builds the HTTP gateway; serve it with Gateway.Serve (wrap
// the listener with tls.NewListener for HTTPS) and stop it with
// Gateway.Shutdown, which drains in-flight requests and severs SSE
// streams (their subscriptions stay resumable).
func NewGateway(o GatewayOptions) (*Gateway, error) { return gateway.New(o) }

// GatewayMetrics aggregates the serving metric families — HTTP traffic,
// query outcomes and Explain provenance, SSE stream churn, ingest and
// hub/WAL counters — on one registry, exposed at GET /metrics in
// Prometheus text format.
type GatewayMetrics = gateway.Metrics

// NewGatewayMetrics registers the gateway families on reg (a fresh
// registry when nil).
func NewGatewayMetrics(reg *MetricsRegistry) *GatewayMetrics { return gateway.NewMetrics(reg) }

// MetricsRegistry is the dependency-free Prometheus registry
// (text exposition format 0.0.4) behind the gateway's /metrics.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// OpenAPISpec is the committed OpenAPI 3.0 document describing the
// gateway's HTTP surface; the gateway serves it at GET /openapi.yaml.
var OpenAPISpec = openapi.Spec

// --- UQL (Section 4's SQL sketch) ---

// CompileUQL parses a UQL statement, e.g.
//
//	SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 5, Time) > 0
//
// and compiles it to the unified Request, to be evaluated with Engine.Do /
// Engine.DoBatch, Router.Do or ModClient.Query. Every statement that
// parses compiles: the predicate's bound becomes Request.P (`> p` is P = p,
// CertainNN is P = 1).
func CompileUQL(query string) (Request, error) {
	st, err := uql.Parse(query)
	if err != nil {
		return Request{}, err
	}
	return uql.Compile(st), nil
}

// ClusteredWorkloadConfig parameterizes the hotspot workload generator
// (extension experiment E4).
type ClusteredWorkloadConfig = workload.ClusterConfig

// GenerateClusteredWorkload produces n trajectories starting around random
// hotspots instead of uniformly.
func GenerateClusteredWorkload(c ClusteredWorkloadConfig, n int) ([]*Trajectory, error) {
	return workload.GenerateClustered(c, n)
}
