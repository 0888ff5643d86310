package main

// Interposition for the traced run, through interfaces and functions the
// code already exports: timing decorators over gateway.Backend, the
// serving layers' Journal and cluster.Shard, a counting cluster.Dialer, a
// continuous.Backend written against public functions only, and a
// stage-by-stage replay of each one-shot query through the public
// pipeline (prune.NewSweepWhere -> Sweep.Bounds -> Sweep.Survivors ->
// envelope.BuildDistanceFuncs -> envelope.LowerEnvelope ->
// queries.NewProcessorPrunedCtx -> refine) next to the real engine.Do.

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/envelope"
	"repro/internal/gateway"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// ---- decorators --------------------------------------------------------

// tracedJournal times the write-ahead hook. gateway.Journal and
// modserver.Journal have the same method set, so one decorator serves the
// embedded loop and the shard servers.
type tracedJournal struct {
	tr *tracer
	j  gateway.Journal
}

func (j tracedJournal) Append(updates []mod.Update) error {
	defer j.tr.end(j.tr.begin("wal.append"))
	return j.j.Append(updates)
}

func (j tracedJournal) AfterApply(store *mod.Store) error {
	defer j.tr.end(j.tr.begin("wal.after_apply"))
	return j.j.AfterApply(store)
}

// tracedBackend times the gateway's view of the router.
type tracedBackend struct {
	gateway.Backend
	tr *tracer
}

func (b tracedBackend) Do(ctx context.Context, req engine.Request) (engine.Result, error) {
	_, done := b.tr.scope("cluster.router_do")
	defer done()
	return b.Backend.Do(ctx, req)
}

// tracedShard times the router's view of one shard. The router scatters
// to its shards in parallel, so these spans overlap; each is tagged with
// its shard for the skew ratio.
type tracedShard struct {
	cluster.Shard
	tr  *tracer
	idx int
}

func (s tracedShard) span(op string) func() {
	id := s.tr.beginNote("cluster.shard_"+op, s.idx)
	return func() { s.tr.end(id) }
}

func (s tracedShard) Get(ctx context.Context, oid int64) (*trajectory.Trajectory, []string, error) {
	defer s.span("get")()
	return s.Shard.Get(ctx, oid)
}

func (s tracedShard) Bounds(ctx context.Context, q *trajectory.Trajectory, tb, te float64, k int, where *textidx.Predicate) ([]float64, error) {
	defer s.span("bounds")()
	return s.Shard.Bounds(ctx, q, tb, te, k, where)
}

func (s tracedShard) Survivors(ctx context.Context, q *trajectory.Trajectory, tb, te float64, bounds []float64, where *textidx.Predicate) ([]*trajectory.Trajectory, prune.Stats, error) {
	defer s.span("survivors")()
	return s.Shard.Survivors(ctx, q, tb, te, bounds, where)
}

func (s tracedShard) Refine(ctx context.Context, gatherID string, union *mod.Store, own []int64, req engine.Request) (engine.Result, error) {
	defer s.span("refine")()
	return s.Shard.Refine(ctx, gatherID, union, own, req)
}

func (s tracedShard) Ingest(ctx context.Context, updates []mod.Update) ([]mod.Applied, error) {
	defer s.span("ingest")()
	return s.Shard.Ingest(ctx, updates)
}

func (s tracedShard) Owns(ctx context.Context, oids []int64) ([]bool, error) {
	defer s.span("owns")()
	return s.Shard.Owns(ctx, oids)
}

// wireCounters counts what crosses the router-to-shard sockets. One
// request line is one Write on the client side of the line protocol, so
// writes are round trips.
type wireCounters struct {
	writes, bytes atomic.Int64
	respBytes     int64 // gateway response bodies, summed by the client
}

func (w *wireCounters) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, w: w}, nil
}

type countingConn struct {
	net.Conn
	w *wireCounters
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.writes.Add(1)
	c.w.bytes.Add(int64(n))
	return n, err
}

// ---- the public-function continuous.Backend ----------------------------

// publicBackend is the single-store continuous.Backend rebuilt from
// exported functions only (Store.ApplyUpdates, Engine.Do,
// Engine.ProcessorWhereCtx, prune.SliceBoundsWhere, prune.SliceCuts), so
// that apply, evaluation and profiling get spans of their own inside
// Hub.Ingest. The traced standing_churn run checks its event stream
// against continuous.NewEngineHub batch by batch.
type publicBackend struct {
	store *mod.Store
	eng   *engine.Engine
	tr    *tracer
}

func (b *publicBackend) Apply(_ context.Context, updates []mod.Update) ([]mod.Applied, error) {
	defer b.tr.end(b.tr.begin("mod.apply"))
	return b.store.ApplyUpdates(updates)
}

func (b *publicBackend) Evaluate(ctx context.Context, req engine.Request) (engine.Result, *continuous.Profile, error) {
	id := b.tr.begin("continuous.evaluate")
	res, err := b.eng.Do(ctx, b.store, req)
	b.tr.end(id)
	if err != nil {
		return res, nil, err
	}
	if req.Kind == engine.KindAllPairs || req.Kind == engine.KindReverse {
		return res, nil, nil // iterates query trajectories: no bounded dependency set
	}
	id = b.tr.begin("continuous.profile")
	prof, perr := b.profile(ctx, req)
	b.tr.end(id)
	if perr != nil {
		prof = nil // always dirty, never a wrong skip
	}
	return res, prof, nil
}

func (b *publicBackend) profile(ctx context.Context, req engine.Request) (*continuous.Profile, error) {
	q, err := b.store.Get(req.QueryOID)
	if err != nil {
		return nil, err
	}
	proc, err := b.eng.ProcessorWhereCtx(ctx, b.store, req.QueryOID, req.Tb, req.Te, req.Where)
	if err != nil {
		return nil, err
	}
	if k := req.Rank(); k > 1 {
		if err := proc.EnsureLevelsCtx(ctx, k); err != nil {
			return nil, err
		}
	}
	bounds, err := prune.SliceBoundsWhere(ctx, b.store, q, req.Tb, req.Te, req.Rank(), req.Where)
	if err != nil {
		return nil, err
	}
	cuts := prune.SliceCuts(q, req.Tb, req.Te)
	if len(cuts) < 2 || len(bounds) != len(cuts)-1 {
		return nil, nil
	}
	set := make(map[int64]struct{})
	for _, id := range proc.SurvivorOIDs() {
		set[id] = struct{}{}
	}
	return &continuous.Profile{Query: q, Cuts: cuts, Bounds: bounds, Superset: set}, nil
}

func (b *publicBackend) Radius() float64 { return b.store.Radius() }

// ---- stage-by-stage replay ---------------------------------------------

// replayer repeats each traced one-shot query through the public
// pipeline, one span per stage, right after the real engine.Do returned
// and outside its timed section. A request the engine served from its
// memo replays only the refine stage, on the engine's own memoized
// processor (Engine.ProcessorWhereCtx), so the replay warms the data the
// next request reads instead of evicting it.
type replayer struct {
	tr  *tracer
	st  *mod.Store
	eng *engine.Engine // the engine under test: its memo, and the refine fan-out engine.Do uses

	// Accumulated over the replayed queries.
	queries, filtered, rank2 int
	memoHits                 int
	doWall, doFiltered       time.Duration
	doRank2, stageWall       time.Duration
	survivors, candidates    int
	probes, intervals        int
	allocPrune, allocEnv     uint64
	allocRefine              uint64
	mismatches               []string
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// endStage closes a stage's span and adds its wall to the attributed
// total.
func (r *replayer) endStage(id int) { r.stageWall += r.tr.end(id) }

func (r *replayer) query(req engine.Request, res engine.Result, doWall time.Duration) {
	r.queries++
	r.doWall += doWall
	if req.Where != nil {
		r.filtered++
		r.doFiltered += doWall
	}
	if req.Rank() > 1 {
		r.rank2++
		r.doRank2 += doWall
	}
	if res.Explain.MemoHit {
		r.memoHits++
	}
	got, err := r.replay(req, res.Explain.MemoHit)
	if err != nil {
		r.mismatches = append(r.mismatches, fmt.Sprintf("replay %s: %v", req.Kind, err))
		return
	}
	if want := answerKey(res); got != want {
		r.mismatches = append(r.mismatches, fmt.Sprintf("replay %s q=%d: got %s, engine.Do answered %s", req.Kind, req.QueryOID, got, want))
	}
}

func (r *replayer) replay(req engine.Request, memoHit bool) (string, error) {
	ctx := context.Background()
	_, done := r.tr.root("replay.query")
	where := req.Where.Canon()
	var proc *queries.Processor
	var err error
	if memoHit {
		proc, err = r.eng.ProcessorWhereCtx(ctx, r.st, req.QueryOID, req.Tb, req.Te, where)
	} else {
		proc, err = r.build(ctx, req, where)
	}
	if err != nil {
		done()
		return "", err
	}
	a0 := totalAlloc()
	id := r.tr.begin("queries.refine")
	out, err := r.refine(proc, req)
	r.endStage(id)
	r.allocRefine += totalAlloc() - a0
	done()
	if err == nil && !memoHit {
		// The pre-pass probe count, from the one public call that reports
		// it; outside the replay's span because it repeats the pre-pass.
		var zs prune.Stats
		if _, zs, err = zone(ctx, r.st, req, where, 1); err == nil {
			r.probes += zs.Probes
		}
	}
	return answerKey(out), err
}

// zone is the public rank-k pre-pass in one call: the survivor superset
// and its statistics.
func zone(ctx context.Context, st *mod.Store, req engine.Request, where *textidx.Predicate, k int) ([]int64, prune.Stats, error) {
	q, err := st.Get(req.QueryOID)
	if err != nil {
		return nil, prune.Stats{}, err
	}
	ids, _, _, zs, err := prune.ZoneWhereCtx(ctx, st, q, req.Tb, req.Te, k, where)
	return ids, zs, err
}

// build is the memo-miss path: pre-pass, envelope, processor.
func (r *replayer) build(ctx context.Context, req engine.Request, where *textidx.Predicate) (*queries.Processor, error) {
	st, tb, te := r.st, req.Tb, req.Te
	q, err := st.Get(req.QueryOID)
	if err != nil {
		return nil, err
	}
	// The pre-pass universe: the whole MOD, or the query plus the
	// predicate's sub-MOD.
	trs := st.All()
	if where != nil {
		id := r.tr.begin("textidx.match")
		match := st.MatchingOIDs(where)
		r.endStage(id)
		keep := trs[:0:0]
		for _, tr := range trs {
			if _, ok := slices.BinarySearch(match, tr.OID); ok || tr.OID == q.OID {
				keep = append(keep, tr)
			}
		}
		trs = keep
	}

	a0 := totalAlloc()
	id := r.tr.begin("prune.snapshot")
	sw, err := prune.NewSweepWhere(st, q, tb, te, where)
	r.endStage(id)
	if err != nil {
		return nil, err
	}
	id = r.tr.begin("prune.bounds")
	bounds, err := sw.Bounds(ctx, 1)
	r.endStage(id)
	if err != nil {
		return nil, err
	}
	id = r.tr.begin("prune.survivors")
	surv, stats, err := sw.Survivors(ctx, bounds)
	r.endStage(id)
	if err != nil {
		return nil, err
	}
	a1 := totalAlloc()
	r.allocPrune += a1 - a0
	r.survivors += stats.Survivors
	r.candidates += stats.Candidates

	// The envelope stages run once on their own — queries has no seam
	// between them and the rest of processor construction — and their
	// spans are deducted from the processor span that repeats them.
	dfID := r.tr.begin("envelope.distfuncs")
	fns, err := envelope.BuildDistanceFuncs(surv, q, tb, te)
	r.tr.end(dfID)
	if err != nil {
		return nil, err
	}
	leID := r.tr.begin("envelope.lower")
	env, err := envelope.LowerEnvelope(fns, tb, te)
	r.tr.end(leID)
	if err != nil {
		return nil, err
	}
	r.intervals += env.Size()
	r.allocEnv += totalAlloc() - a1

	ids := make([]int64, len(surv))
	for i, tr := range surv {
		ids[i] = tr.OID
	}
	pid := r.tr.begin("queries.processor")
	proc, err := queries.NewProcessorPrunedCtx(ctx, trs, q, tb, te, st.Radius(), ids)
	r.endStage(pid)
	if err != nil {
		return nil, err
	}
	r.tr.markRepeats(pid, dfID, leID)

	if k := req.Rank(); k > 1 {
		proc.SetRankExpander(func(ctx context.Context, k int) ([]int64, error) {
			defer r.tr.end(r.tr.begin("prune.rank_survivors"))
			ids, _, err := zone(ctx, st, req, where, k)
			return ids, err
		})
		_, done := r.tr.scope("queries.levels")
		err := proc.EnsureLevelsCtx(ctx, k)
		r.stageWall += done()
		if err != nil {
			return nil, err
		}
	}
	return proc, nil
}

// refine mirrors engine.execRequest for the kinds the scripts use: the
// whole-MOD kinds fan the per-object predicate across the worker pool,
// the single-object kinds run inline.
func (r *replayer) refine(p *queries.Processor, req engine.Request) (engine.Result, error) {
	out := engine.Result{Kind: req.Kind}
	filter := func(pred func(oid int64) (bool, error)) (engine.Result, error) {
		var err error
		out.OIDs, err = r.eng.FilterOIDs(p.CandidateOIDs(), pred)
		return out, err
	}
	single := func(b bool, err error) (engine.Result, error) {
		out.IsBool, out.Bool = true, b
		return out, err
	}
	switch req.Kind {
	case engine.KindUQ31:
		return filter(p.UQ11)
	case engine.KindUQ32:
		return filter(p.UQ12)
	case engine.KindUQ33:
		return filter(func(oid int64) (bool, error) { return p.UQ13(oid, req.X) })
	case engine.KindUQ41:
		return filter(func(oid int64) (bool, error) { return p.UQ21(oid, req.K) })
	case engine.KindAllNNAt:
		return filter(func(oid int64) (bool, error) { return p.IsPossibleNNAt(oid, req.T) })
	case engine.KindUQ11:
		return single(p.UQ11(req.OID))
	case engine.KindUQ13:
		return single(p.UQ13(req.OID, req.X))
	case engine.KindNNAt:
		return single(p.IsPossibleNNAt(req.OID, req.T))
	}
	return out, fmt.Errorf("kind %s is not in the replay table", req.Kind)
}
