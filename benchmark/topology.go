package main

// Instance set-up: the system under test in one of its two shapes.
//
//   - embedded: one store, one engine, one continuous hub and a
//     write-ahead log, called in-process (engine.Do; wal.Append +
//     Hub.Ingest + AfterApply, the order the serving layers use).
//   - wire: the topology `modserver serve -shards a,b` runs — an HTTP
//     gateway over a cluster.Router over two RemoteShards, each a
//     journaling modserver on its own loopback TCP listener, driven by one
//     keep-alive HTTP client.
//
// Set-up is timed by the caller; everything here is the program's own
// start-up work (fleet generation, store load, index builds, journal
// creation and a full recovery of it, listeners, dials, subscriptions).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/gateway"
	"repro/internal/mod"
	"repro/internal/modserver"
	"repro/internal/simtest"
	"repro/internal/wal"
)

// walOptions mirrors the serving commands' defaults: no fsync per batch,
// a snapshot rotation every 64 batches.
var walOptions = wal.Options{SnapshotEvery: 64}

// instance is one set-up system plus the handles the harness drives and
// observes it through.
type instance struct {
	spec    workloadSpec
	workers int
	tr      *tracer // nil on the untraced run

	// Embedded shape.
	store   *mod.Store
	eng     *engine.Engine
	hub     *continuous.Hub
	journal gateway.Journal // the wal.Log, behind a timing decorator when traced
	subIDs  []int64         // hub subscription of the i-th scripted subscriber

	// The traced run's reference hub: continuous.NewEngineHub over a
	// second copy of the fleet, fed the same batches and registrations,
	// whose event stream the public-function backend must reproduce byte
	// for byte.
	refHub *continuous.Hub
	refIDs []int64

	// Wire shape.
	shardStores []*mod.Store
	servers     []*modserver.Server
	remotes     []*cluster.RemoteShard
	gw          *gateway.Server
	client      *http.Client
	base        string
	wire        *wireCounters

	logs    []*wal.Log
	dirs    []string
	serving sync.WaitGroup

	replay *replayer // stage-by-stage replay state (traced, embedded)
}

// stores returns every store holding part of the fleet.
func (in *instance) stores() []*mod.Store {
	if in.spec.Wire {
		return in.shardStores
	}
	return []*mod.Store{in.store}
}

func setup(sc *script, workDir string, workers int, tr *tracer) (_ *instance, err error) {
	in := &instance{spec: sc.Spec, workers: workers, tr: tr}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	// Fleet generation and store load: the same generator call the script
	// was prepared from, paid again because a server starting up pays it.
	w, err := simtest.NewWorld(sc.Cfg)
	if err != nil {
		return nil, err
	}
	st, err := w.InitialStore()
	if err != nil {
		return nil, err
	}
	if sc.Spec.Wire {
		err = in.setupWire(st, workDir)
	} else {
		err = in.setupEmbedded(st, w, sc, workDir)
	}
	if err != nil {
		return nil, err
	}
	var warm phaseStats
	for i := range sc.Warmup {
		if in.playRound(&sc.Warmup[i], &warm); warm.failed > 0 {
			return nil, fmt.Errorf("warm-up round %d: %s", i, warm.failures[0])
		}
	}
	return in, nil
}

// journalStore builds the store's indexes, creates its write-ahead log in
// a fresh directory and runs the restart path over that directory once: a
// full wal.Recover whose result must match the store it was taken from.
func (in *instance) journalStore(st *mod.Store, workDir string) (*wal.Log, error) {
	st.BuildIndex(0)
	st.TextIndex()
	dir, err := os.MkdirTemp(workDir, "wal-")
	if err != nil {
		return nil, err
	}
	in.dirs = append(in.dirs, dir)
	log, err := wal.Create(dir, st, walOptions)
	if err != nil {
		return nil, err
	}
	in.logs = append(in.logs, log)
	rec, _, err := wal.Recover(log.Dir())
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", log.Dir(), err)
	}
	if rec.Len() != st.Len() {
		return nil, fmt.Errorf("recover %s: %d trajectories, store has %d", log.Dir(), rec.Len(), st.Len())
	}
	return log, nil
}

func (in *instance) setupEmbedded(st *mod.Store, w *simtest.World, sc *script, workDir string) error {
	log, err := in.journalStore(st, workDir)
	if err != nil {
		return err
	}
	in.store = st
	in.eng = engine.New(in.workers)
	in.journal = log
	if in.tr == nil {
		in.hub = continuous.NewEngineHub(st, in.eng)
	} else {
		in.journal = tracedJournal{in.tr, log}
		in.hub = continuous.New(&publicBackend{store: st, eng: in.eng, tr: in.tr})
		in.replay = &replayer{tr: in.tr, st: st, eng: in.eng}
		if len(sc.Subs) > 0 {
			ref, err := w.InitialStore()
			if err != nil {
				return err
			}
			in.refHub = continuous.NewEngineHub(ref, engine.New(in.workers))
		}
	}
	ctx := context.Background()
	for _, req := range sc.Subs {
		id, _, err := in.hub.Subscribe(ctx, req)
		if err != nil {
			return fmt.Errorf("subscribe %s: %w", req.Kind, err)
		}
		in.subIDs = append(in.subIDs, id)
		if in.refHub != nil {
			id, _, err := in.refHub.Subscribe(ctx, req)
			if err != nil {
				return fmt.Errorf("reference subscribe %s: %w", req.Kind, err)
			}
			in.refIDs = append(in.refIDs, id)
		}
	}
	return nil
}

// resubscribe moves the named subscribers to a fresh standing question,
// on the hub and on the reference hub alike. It is registration work, not
// one of the two timed operations, and records no spans.
func (in *instance) resubscribe(rs *resubscribe) error {
	if in.tr != nil {
		defer in.tr.on.Store(in.tr.on.Swap(false))
	}
	move := func(hub *continuous.Hub, ids []int64) error {
		for _, i := range rs.Subs {
			hub.Unsubscribe(ids[i])
		}
		for _, i := range rs.Subs {
			id, _, err := hub.Subscribe(context.Background(), rs.Req)
			if err != nil {
				return fmt.Errorf("resubscribe %s: %w", rs.Req.Kind, err)
			}
			ids[i] = id
		}
		return nil
	}
	if err := move(in.hub, in.subIDs); err != nil {
		return err
	}
	if in.refHub != nil {
		return move(in.refHub, in.refIDs)
	}
	return nil
}

func (in *instance) setupWire(st *mod.Store, workDir string) error {
	parts, err := cluster.SplitStore(st, 2, cluster.Hash{})
	if err != nil {
		return err
	}
	in.shardStores = parts
	if in.tr != nil {
		in.wire = &wireCounters{}
	}
	shards := make([]cluster.Shard, len(parts))
	for i, part := range parts {
		log, err := in.journalStore(part, workDir)
		if err != nil {
			return err
		}
		opts := modserver.Options{Journal: log}
		if in.tr != nil {
			opts.Journal = tracedJournal{in.tr, log}
		}
		srv := modserver.NewServerWith(part, engine.New(in.workers), opts)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		in.servers = append(in.servers, srv)
		in.serving.Add(1)
		go func() {
			defer in.serving.Done()
			_ = srv.Serve(l) // returns ErrServerClosed after close()
		}()
		var ropts cluster.RemoteOptions
		if in.tr != nil {
			ropts.Dialer = in.wire.dial
		}
		rs := cluster.NewRemoteShardWith(fmt.Sprintf("shard-%d", i), l.Addr().String(), ropts)
		in.remotes = append(in.remotes, rs)
		shards[i] = rs
		if in.tr != nil {
			shards[i] = tracedShard{Shard: rs, tr: in.tr, idx: i}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	router, err := cluster.NewRouter(ctx, shards, cluster.Options{Engine: engine.New(in.workers)})
	if err != nil {
		return err
	}
	var backend gateway.Backend = router
	if in.tr != nil {
		backend = tracedBackend{Backend: router, tr: in.tr}
	}
	in.gw, err = gateway.New(gateway.Options{Backend: backend, Hub: cluster.NewRouterHub(router)})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.serving.Add(1)
	go func() {
		defer in.serving.Done()
		_ = in.gw.Serve(l) // returns nil after Shutdown
	}()
	in.base = "http://" + l.Addr().String()
	// One client, one connection: callers of a MOD wait for their reply.
	in.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		DisableCompression: true,
	}}
	resp, err := in.client.Get(in.base + "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway /readyz: %s", resp.Status)
	}
	return nil
}

// close stops every goroutine and listener the instance started, waits
// for them, and removes its journal directories.
func (in *instance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if in.client != nil {
		in.client.CloseIdleConnections()
	}
	if in.gw != nil {
		_ = in.gw.Shutdown(ctx)
	}
	for _, rs := range in.remotes {
		_ = rs.Close()
	}
	for _, srv := range in.servers {
		_ = srv.Shutdown(ctx)
	}
	in.serving.Wait()
	if in.hub != nil {
		in.hub.Close()
	}
	for _, log := range in.logs {
		_ = log.Close()
	}
	for _, dir := range in.dirs {
		_ = os.RemoveAll(dir)
	}
}

// ---- the two operations of the closed loop -----------------------------

// reply is a served answer before canonicalisation: the engine's result on
// the embedded shape, the response body on the wire.
type reply struct {
	res  engine.Result
	body []byte
}

// key renders the canonical answer key, decoding the JSON body first on
// the wire. It runs outside every timed section.
func (r reply) key() (string, error) {
	if r.body == nil {
		return answerKey(r.res), nil
	}
	var res engine.Result
	if err := json.Unmarshal(r.body, &res); err != nil {
		return "", fmt.Errorf("decode answer: %w", err)
	}
	return answerKey(res), nil
}

// query runs one scripted one-shot query and returns the latency the
// caller saw. In a traced round the index maintenance the query path
// would trigger inside the call runs first, on its own, so that it gets a
// span (the call then finds the indexes fresh; the request is the sum of
// both), and an embedded query is replayed stage by stage afterwards.
func (in *instance) query(q *queryOp) (time.Duration, reply, error) {
	traced := in.tr.enabled()
	name := "client.query"
	if in.spec.Wire {
		name = "gateway.query"
	}
	var (
		rep    reply
		err    error
		doWall time.Duration
	)
	t0 := time.Now()
	_, done := in.tr.root(name)
	if traced {
		in.freshenIndexes(q.Req.Where != nil)
	}
	if in.spec.Wire {
		rep.body, err = in.post("/v1/query", q.Body)
	} else {
		id := in.tr.begin("engine.do")
		rep.res, err = in.eng.Do(context.Background(), in.store, q.Req)
		doWall = in.tr.end(id)
	}
	done()
	d := time.Since(t0)
	switch {
	case !traced || err != nil:
	case in.spec.Wire:
		in.wire.respBytes += int64(len(rep.body))
	default:
		in.replay.query(q.Req, rep.res, doWall)
	}
	return d, rep, err
}

// freshenIndexes brings every store's segment R-tree (and, for a filtered
// request, its text index) up to date under spans of their own — the
// shards side by side, as their servers would.
func (in *instance) freshenIndexes(filtered bool) {
	freshen := func(st *mod.Store) {
		id := in.tr.begin("sindex.build_index")
		st.BuildIndex(0)
		in.tr.end(id)
		if filtered {
			id := in.tr.begin("textidx.text_index")
			st.TextIndex()
			in.tr.end(id)
		}
	}
	stores := in.stores()
	if len(stores) == 1 {
		freshen(stores[0])
		return
	}
	var wg sync.WaitGroup
	for _, st := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			freshen(st)
		}()
	}
	wg.Wait()
}

func (in *instance) post(path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, in.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := in.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// ingest runs one scripted update batch — journal append, apply, every
// standing answer refreshed, diff events returned — and returns its wall
// and the events. On the traced run it also feeds the reference hub
// (untimed) and checks the two event streams against each other.
func (in *instance) ingest(b *batchOp) (time.Duration, int, error) {
	if in.spec.Wire {
		t0 := time.Now()
		_, done := in.tr.root("gateway.ingest")
		_, err := in.post("/v1/ingest", b.Body)
		done()
		return time.Since(t0), 0, err
	}
	ctx := context.Background()
	t0 := time.Now()
	_, done := in.tr.root("client.ingest")
	if err := in.journal.Append(b.Updates); err != nil {
		done()
		return time.Since(t0), 0, fmt.Errorf("journal append: %w", err)
	}
	_, hubDone := in.tr.scope("continuous.ingest")
	_, events, err := in.hub.Ingest(ctx, b.Updates)
	hubDone()
	if err == nil {
		// A failed snapshot only defers log truncation (as in the gateway).
		_ = in.journal.AfterApply(in.store)
	}
	done()
	d := time.Since(t0)
	if err != nil {
		return d, 0, err
	}
	if in.refHub != nil {
		_, want, rerr := in.refHub.Ingest(ctx, b.Updates)
		if rerr != nil {
			return d, len(events), fmt.Errorf("reference hub: %w", rerr)
		}
		if got, ref := eventKeys(events), eventKeys(want); got != ref {
			return d, len(events), fmt.Errorf("public-function backend diverged from continuous.NewEngineHub:\n got %s\nwant %s", got, ref)
		}
	}
	return d, len(events), nil
}

// eventKeys renders an event stream canonically (Explain carries wall
// times and is left out).
func eventKeys(events []continuous.Event) string {
	for i := range events {
		events[i].Explain = engine.Explain{}
	}
	b, err := json.Marshal(events)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

// standing returns the hub's current answer for the i-th scripted
// subscriber.
func (in *instance) standing(i int) (string, error) {
	if in.hub == nil || i >= len(in.subIDs) {
		return "", errors.New("no such standing subscription")
	}
	res, err := in.hub.Answer(in.subIDs[i])
	if err != nil {
		return "", err
	}
	return answerKey(res), nil
}
