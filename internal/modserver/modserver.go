// Package modserver exposes a mod.Store over TCP with a line-delimited
// JSON protocol, plus a matching client. It is the network substrate of
// the MOD (Section 1 of the paper: users submit trips to the server and
// pose continuous probabilistic NN queries against it).
//
// Protocol: one JSON object per line in each direction.
//
//	request  := {"op": "...", ...}
//	response := {"ok": true, ...} | {"ok": false, "error": message, "code": code}
//	result   := an engine.Result: {"kind", "oids"|"pairs"|"is_bool"+"bool", "explain"}
//	entry    := {"ok": true, "result": result} | {"ok": false, "error": {"code": code, "message": message}}
//
// "code" is on every error, the top-level one and an entry's, and is
// serve's (serve.Classify): the code set, the shapes of result and entry
// and the errors a client rebuilds from them (serve.Rebuild) are the HTTP
// gateway's, so both wires name a failure alike.
//
// Operations:
//
//	{"op":"ping"}                                  → {"ok":true}
//	{"op":"count"}                                 → {"ok":true,"count":N}
//	{"op":"spec"}                                  → {"ok":true,"spec":{...}}
//	{"op":"insert","oid":1,"verts":[[x,y,t],...]}  → {"ok":true} (a one-update ingest; a known OID is rejected)
//	{"op":"get","oid":1}                           → {"ok":true,"oid":1,"verts":[...]}
//	{"op":"delete","oid":1}                        → {"ok":true} (a retire ingest; unknown OID → "code":"not_found")
//	{"op":"query","requests":[{"kind":"UQ31",
//	 "query_oid":1,"tb":0,"te":60}, ...],
//	 "deadline_ms":500}                            → {"ok":true,"results":[entry,...]}
//	{"op":"trip","oid":9,"waypoints":[[x,y],...],
//	 "start":0,"speed":0.5}                        → {"ok":true,"oid":9,"verts":[...]} (plans, then inserts as above)
//	{"op":"ingest","updates":[{"oid":1,"verts":[...],
//	 "tags":[...]},{"oid":2,"retire":true}]}       → {"ok":true,"applied":[{...},...]}
//	{"op":"subscribe","request":{...}}             → {"ok":true,"sub_id":N,"result":result}, then {"ok":true,"event":{...}}*
//	{"op":"subscribe","sub_id":N,"from_seq":S}     → the same reply, then the missed events, then live ones (resume)
//	{"op":"unsubscribe","sub_id":N}                → {"ok":true}
//
// Every mutation — insert, trip, delete, ingest — is an update batch on
// the one journal → hub → fan-out path of internal/serve: it is journaled
// when a journal is configured, and standing subscriptions see its diff.
//
// Shard-serving phases of the query op (the cluster bound exchange; +Inf
// bounds travel as -1 since JSON has no Inf literal). Wherever a
// trajectory moves between router and shard its vertices are packed: "vb"
// (and "pvb", an applied outcome's superseded plan) is base64 of 24-byte
// little-endian (x, y, t) float64 triples — serve/wire.go. That covers the
// query trajectory below, every survivors item and ingest updates; an
// ingest reply packs only the plans the router cannot rebuild from those
// updates (serve.EncodeApplied). "verts" triples are still read in every
// request (the human ops insert/trip/get speak only them), an item
// carrying both forms or a ragged vb fails its request with
// "code":"bad_request", and either form meets the same validation.
//
//	{"op":"query","phase":"bounds","oid":1,
//	 "vb":"<base64>","tb":0,"te":60,"k":1}         → {"ok":true,"bounds":[...]}
//	{"op":"query","phase":"survivors","oid":1,
//	 "vb":"...","tb":0,"te":60,"bounds":[...]}     → {"ok":true,"more":true,"trajs":[{"oid":2,"vb":"..."},...]}*
//	                                                 {"ok":true,"trajs":[last chunk],"stats":{...}}
//	{"op":"query","phase":"oids"}                  → {"ok":true,"oids":[...]}
//
// The survivors phase streams its trajectory set as incremental frames,
// each line within the server's request-line cap, so one large survivor
// set never demands an unbounded write buffer; intermediate frames carry
// "more":true and the final frame carries the stats. A shard refines
// nothing: the router verifies the survivors it gathered on its own
// engine, and any other phase answers "unknown query phase".
//
// The query op is the unified route: it carries engine.Request descriptors
// verbatim on the wire, evaluates them through Engine.DoBatch, and returns
// one entry per request, a failed request failing only its entry (as
// /v1/batch does). deadline_ms (> 0)
// bounds the whole batch with a context deadline honored inside the worker
// pool and the preprocessing — an expired deadline fails the op with a
// context error instead of hogging the server. UQL is a client-side
// language: a statement compiles to a Request (uql.Compile) before it
// travels, so the query op is the only query route on the wire.
package modserver

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/serve"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// MaxLine bounds a single protocol line (1 MiB) to keep rogue clients from
// exhausting memory. Options.MaxLineBytes overrides it per server.
const MaxLine = 1 << 20

// DefaultReadTimeout bounds how long a connection may sit between request
// lines before the server closes it. Serving-layer hardening: a stalled or
// hostile client holds shard resources (a goroutine, a connection slot, a
// scanner buffer) for at most this long.
const DefaultReadTimeout = 2 * time.Minute

// DefaultWriteTimeout bounds one asynchronous subscription-event write
// and one frame of a streamed reply. Events are delivered under the serve
// core's emit lock, so a subscriber that stops reading must fail fast (and
// be disconnected) instead of wedging every ingest behind its full TCP
// buffer — the write-side twin of the read-deadline hardening. Streamed
// survivors frames get the same per-frame deadline: a reader that stalls
// mid-stream is severed instead of pinning the connection goroutine. Single-line request replies stay
// exempt: modest replies on slow links are legitimate.
const DefaultWriteTimeout = 10 * time.Second

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("modserver: server closed")

// ErrConnClosed reports a client call whose connection closed mid-read —
// the transport died cleanly rather than delivering a reply. Retry layers
// (the cluster RemoteShard) match on it to classify the failure as
// transient.
var ErrConnClosed = errors.New("modserver: connection closed")

// errPlaintext answers a client that did not speak TLS to a TLS server.
var errPlaintext = fmt.Errorf("modserver: %w", serve.ErrTLSRequired)

// fail is the reply to a failed request: the message with its code.
func fail(err error) Response {
	code, _ := serve.Classify(err)
	return Response{Error: err.Error(), Code: code}
}

// Request is the wire format of a client request.
type Request struct {
	Op string `json:"op"`
	// Token authenticates the connection on the "auth" op (required first
	// when the server has Options.Token configured).
	Token string       `json:"token,omitempty"`
	OID   int64        `json:"oid,omitempty"`
	Verts [][3]float64 `json:"verts,omitempty"`
	// VB is Verts in the shard link's packed form (serve.PackVerts); a
	// request carries one or the other.
	VB        []byte       `json:"vb,omitempty"`
	Waypoints [][2]float64 `json:"waypoints,omitempty"`
	Start     float64      `json:"start,omitempty"`
	Speed     float64      `json:"speed,omitempty"`

	// Requests carries unified query descriptors for the "query" op —
	// the engine.Request contract, forwarded verbatim.
	Requests []engine.Request `json:"requests,omitempty"`
	// DeadlineMS (> 0) bounds the "query" op end to end: the server
	// evaluates under a context deadline and fails the op with a context
	// error once it expires. It applies to the shard phases too.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Phase selects a cluster sub-operation of the "query" op: ""
	// evaluates Requests; "bounds" and "survivors" are the two-phase NN
	// bound exchange (OID/Verts carry the query trajectory, Tb/Te the
	// window, K the rank; Bounds the imposed global bounds for the
	// survivors phase); "oids" lists the stored OIDs.
	Phase  string    `json:"phase,omitempty"`
	Tb     float64   `json:"tb,omitempty"`
	Te     float64   `json:"te,omitempty"`
	K      int       `json:"k,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	// Where restricts the "bounds", "survivors", and "oids" phases to the
	// predicate's matching sub-MOD (the carried query trajectory stays
	// exempt) — the shard half of the cluster's spatio-textual pruning. The
	// handler normalizes it once, before any op runs.
	Where *textidx.Predicate `json:"where,omitempty"`

	// Updates carries the "ingest" op's live update batch (the
	// mod.ApplyUpdates contract: revision, extension, or insert per item).
	Updates []WireTraj `json:"updates,omitempty"`
	// Request carries the "subscribe" op's standing query.
	Request *engine.Request `json:"request,omitempty"`
	// SubID identifies the subscription for the "unsubscribe" op — and,
	// on a "subscribe" op, selects the resume path: re-attach to the
	// detached subscription SubID instead of registering a new one.
	SubID int64 `json:"sub_id,omitempty"`
	// FromSeq is the last event sequence the resuming client saw; the
	// server replays the retained events after it (continuous.Hub.Replay)
	// before resuming the live stream. Used only with a resume subscribe.
	FromSeq uint64 `json:"from_seq,omitempty"`
}

// WireApplied is one applied live update on the wire, and WireTraj one
// trajectory (the survivors phase) or one ingest update — the shapes
// shared with the HTTP gateway.
type (
	WireApplied = serve.WireApplied
	WireTraj    = serve.WireUpdate
)

// Response is the wire format of a server reply.
type Response struct {
	OK    bool         `json:"ok"`
	Error string       `json:"error,omitempty"`
	Count int          `json:"count,omitempty"`
	Spec  *mod.PDFSpec `json:"spec,omitempty"`
	OID   int64        `json:"oid,omitempty"`
	Verts [][3]float64 `json:"verts,omitempty"`
	// Tags carries the OID's tag set on the "get" reply (absent when
	// untagged).
	Tags []string `json:"tags,omitempty"`
	OIDs []int64  `json:"oids,omitempty"`
	// Results answers the "query" op, one entry per request in order.
	Results []serve.Entry `json:"results,omitempty"`

	// Code is the failure's code (serve.Classify), set on every error
	// reply; the client rebuilds the failure from it (serve.Rebuild).
	Code string `json:"code,omitempty"`
	// Bounds answers the "bounds" phase (+Inf encoded as -1).
	Bounds []float64 `json:"bounds,omitempty"`
	// Trajs answers the "survivors" phase, one chunk per frame.
	Trajs []WireTraj `json:"trajs,omitempty"`
	// More marks a non-final frame of a streamed reply: Trajs carries one
	// chunk and the final frame (More absent) carries the last chunk plus
	// Stats.
	More bool `json:"more,omitempty"`
	// Stats reports the survivors-phase sweep statistics (final frame only).
	Stats *prune.Stats `json:"stats,omitempty"`

	// Applied answers the "ingest" op, one outcome per update in order.
	Applied []WireApplied `json:"applied,omitempty"`
	// SubID answers the "subscribe" op; Result carries its current answer.
	SubID  int64          `json:"sub_id,omitempty"`
	Result *engine.Result `json:"result,omitempty"`
	// Event is an asynchronous subscription diff pushed to a subscribed
	// connection (never a direct reply; clients route on its presence).
	Event *continuous.Event `json:"event,omitempty"`
}

// Options tunes serving-layer hardening.
type Options struct {
	// ReadTimeout bounds how long a connection may sit between request
	// lines; a connection that stalls longer is closed. Zero means
	// DefaultReadTimeout; negative disables the deadline. Connections
	// that own subscriptions are exempt (they are event listeners, not
	// request streams); stalled subscribers are reaped by
	// DefaultWriteTimeout at the next event instead.
	ReadTimeout time.Duration
	// MaxLineBytes caps one request line. Zero means MaxLine. An
	// oversized request gets one error response, then the connection is
	// closed (the line cannot be resynchronized).
	MaxLineBytes int
	// Journal, when set, makes every mutation (ingest, insert, trip,
	// delete) write-ahead durable: the batch is appended before the hub
	// applies it, and AfterApply runs after a successful apply (where a
	// wal.Log decides whether to snapshot).
	Journal Journal
	// Token, when non-empty, requires every connection to authenticate
	// with {"op":"auth","token":...} before any other op. A wrong token
	// (or an op before auth) gets one coded unauthorized reply and the
	// connection is closed. Comparison is constant-time.
	Token string
}

// Journal is the write-ahead hook of the mutation path (wal.Log
// implements it).
type Journal = serve.Journal

// Server serves a store over a listener. Batch queries run through one
// shared engine so concurrent clients benefit from the same processor
// memo, and one serve.Core keeps every connection's standing
// subscriptions fresh across mutations from any connection.
type Server struct {
	store        *mod.Store
	engine       *engine.Engine
	core         *serve.Core
	readTimeout  time.Duration
	writeTimeout time.Duration // DefaultWriteTimeout; the stall tests shorten it
	maxLine      int
	token        string

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
}

// connState is one connection's locked writer — the serve.Sink of the
// subscriptions it owns. The lock serializes the handler's replies with
// asynchronous event pushes triggered by other connections' ingests. Every
// other field is touched only by the connection's own handler goroutine
// (the protocol is synchronous per connection), so it needs no lock.
type connState struct {
	conn         net.Conn
	writeTimeout time.Duration
	wmu          sync.Mutex
	enc          *json.Encoder
	// subs holds the subscriptions this connection subscribed or resumed
	// and has not unsubscribed: what to detach when it closes.
	subs map[int64]struct{}
	// authed records a successful auth op.
	authed bool
}

// send writes a request reply with no write deadline: replies can be
// legitimately large (a query's answers, a large ingest batch's outcomes)
// and slow links must not sever them.
func (cs *connState) send(resp Response) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	return cs.enc.Encode(resp)
}

// sendEvent writes a subscription event or a stream frame under the write
// deadline, so a peer that stopped reading fails fast.
func (cs *connState) sendEvent(resp Response) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	_ = cs.conn.SetWriteDeadline(time.Now().Add(cs.writeTimeout))
	err := cs.enc.Encode(resp)
	_ = cs.conn.SetWriteDeadline(time.Time{})
	return err
}

// Deliver implements serve.Sink. A subscriber that stalled past the write
// deadline or is gone is told why (best effort — the parting line often
// fits the little buffer room a huge stuck event could not) and its
// connection closed, so the handler unwinds and detaches everything it
// owned instead of dropping events into a wedged stream forever.
func (cs *connState) Deliver(ev continuous.Event) error {
	err := cs.sendEvent(Response{OK: true, Event: &ev})
	if err != nil {
		_ = cs.sendEvent(fail(fmt.Errorf("modserver: %w: %v", serve.ErrEventStalled, err)))
		_ = cs.conn.Close()
	}
	return err
}

// NewServerWith wraps a store with a caller-tuned engine and explicit
// hardening options (a nil engine gets one worker per CPU).
func NewServerWith(store *mod.Store, eng *engine.Engine, o Options) *Server {
	if eng == nil {
		eng = engine.New(0)
	}
	if o.ReadTimeout == 0 {
		o.ReadTimeout = DefaultReadTimeout
	}
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = MaxLine
	}
	return &Server{
		store: store, engine: eng,
		core:        serve.New(continuous.NewEngineHub(store, eng), store, o.Journal),
		readTimeout: o.ReadTimeout, writeTimeout: DefaultWriteTimeout, maxLine: o.MaxLineBytes,
		token: o.Token,
		conns: make(map[net.Conn]struct{}),
	}
}

// Core is the server's live-serving core: the session table and hub
// behind the subscribe, resume and ingest ops.
func (s *Server) Core() *serve.Core { return s.core }

// Serve accepts connections on l until Close. It always returns a non-nil
// error (ErrServerClosed after a clean shutdown).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops accepting and tears down live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	return err
}

// Shutdown drains the server gracefully: it stops accepting, lets every
// in-flight request finish, then disconnects the idle connections (which
// detaches their subscriptions for a later from_seq resume, exactly like
// a client-side drop). Connections still alive when ctx expires are
// force-closed and ctx's error returned. Safe to call concurrently with
// Serve; after it returns, Serve has ErrServerClosed.
//
// Mechanism: a handler blocked in Scan is kicked by an immediate read
// deadline. One kick is not enough — a handler that was mid-request
// re-arms its own deadline when it loops back — so the kick repeats on a
// short ticker until the connection set empties. The in-flight request
// itself is never interrupted: the deadline only fires on the next read.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	var err error
	if !alreadyClosed && s.listener != nil {
		err = s.listener.Close()
	}
	s.mu.Unlock()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		s.mu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			_ = c.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
		if n == 0 {
			return err
		}
		select {
		case <-ctx.Done():
			s.mu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.mu.Unlock()
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

func (s *Server) handle(conn net.Conn) {
	cs := &connState{conn: conn, writeTimeout: s.writeTimeout, enc: json.NewEncoder(conn), subs: make(map[int64]struct{})}
	defer func() {
		conn.Close()
		// The subscriptions stay live in the hub for a from_seq resume.
		for id := range cs.subs {
			s.core.Detach(id, cs)
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if tc, ok := conn.(*tls.Conn); ok {
		// Handshake eagerly (instead of inside the first Read) so a
		// plaintext client is answered, not just dropped: Go flags "first
		// bytes are not TLS" with a RecordHeaderError carrying the raw
		// connection, and a plaintext JSON parting line is the one reply
		// that client can parse (serve.ErrTLSRequired).
		if s.readTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		}
		if err := tc.Handshake(); err != nil {
			var rhe tls.RecordHeaderError
			if errors.As(err, &rhe) && rhe.Conn != nil {
				_ = json.NewEncoder(rhe.Conn).Encode(fail(errPlaintext))
			}
			return
		}
	}
	sc := bufio.NewScanner(conn)
	// The scanner's token cap is max(limit, cap(buf)), so the initial
	// buffer must not exceed the configured line limit.
	initial := 4096
	if initial > s.maxLine {
		initial = s.maxLine
	}
	sc.Buffer(make([]byte, 0, initial), s.maxLine)
	for {
		// Arm the per-connection read deadline before each request line:
		// a client that stalls mid-line (or goes silent) is disconnected
		// instead of pinning this goroutine and its buffers forever.
		// Exception: a connection that owns subscriptions is a legitimate
		// pure listener (its client blocks in NextEvent and, being
		// synchronous, cannot ping) — it gets no read deadline; a dead
		// subscriber is reaped instead by the event write deadline.
		if s.readTimeout > 0 {
			if len(cs.subs) > 0 {
				_ = conn.SetReadDeadline(time.Time{})
			} else {
				_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout))
			}
		}
		if !sc.Scan() {
			if errors.Is(sc.Err(), bufio.ErrTooLong) {
				// One parting diagnostic; the line boundary is lost, so
				// the connection cannot be resynchronized and closes.
				_ = cs.send(fail(serve.Mark(fmt.Errorf("modserver: request exceeds %d bytes", s.maxLine), serve.ErrTooLarge)))
			}
			return
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		resp := Response{OK: true}
		if err := json.Unmarshal(line, &req); err != nil {
			resp = fail(fmt.Errorf("%w: %v", serve.ErrBadRequest, err))
		} else if req.Op == "auth" {
			// Auth gates everything below it in this chain. A wrong token
			// closes the connection after one coded reply — no retries on
			// an established connection, the client redials.
			if s.token != "" && !serve.TokenOK(s.token, req.Token) {
				_ = cs.send(fail(fmt.Errorf("modserver: %w: bad token", serve.ErrUnauthorized)))
				return
			}
			cs.authed = true
		} else if s.token != "" && !cs.authed {
			_ = cs.send(fail(fmt.Errorf("modserver: %w: authenticate first", serve.ErrUnauthorized)))
			return
		} else if req.Where, err = req.Where.Normalize(); err != nil {
			resp = fail(err)
		} else if req.Op == "query" && req.Phase == "survivors" {
			// Streamed replies write their own frames; a mid-stream write
			// failure closes the connection (the stream cannot resync).
			if !s.streamSurvivors(req, cs) {
				return
			}
			continue
		} else if req.Op == "subscribe" && req.SubID != 0 {
			// A resume writes its reply and the replayed backlog itself
			// (the two must be adjacent under the core's emit lock).
			if !s.resumeSubscribe(req, cs) {
				return
			}
			continue
		} else {
			resp = s.dispatch(req, cs)
		}
		if err := cs.send(resp); err != nil {
			return
		}
	}
}

// resumeSubscribe re-attaches a detached subscription to this connection
// and replays the events its client missed since from_seq. The OK reply
// and the replayed backlog are written under the core's emit lock, so no
// live event can interleave: the client sees exactly the missed diffs in
// order, then the live stream. A truncated backlog is the coded event_gap;
// the subscription then stays detached. The return value reports whether
// the connection is still usable.
func (s *Server) resumeSubscribe(req Request, cs *connState) bool {
	wrote := true
	err := s.core.Resume(req.SubID, req.FromSeq, cs, func(res engine.Result, backlog []continuous.Event) error {
		cs.subs[req.SubID] = struct{}{}
		err := cs.send(Response{OK: true, SubID: req.SubID, Result: &res})
		for i := 0; err == nil && i < len(backlog); i++ {
			err = cs.sendEvent(Response{OK: true, Event: &backlog[i]})
		}
		wrote = err == nil
		return err
	})
	if err != nil && wrote {
		// The core refused the resume; nothing has been written yet.
		return cs.send(fail(err)) == nil
	}
	return wrote
}

func (s *Server) dispatch(req Request, cs *connState) Response {
	switch req.Op {
	case "ping":
		return Response{OK: true}
	case "ingest":
		return s.doIngest(req)
	case "subscribe":
		return s.doSubscribe(req, cs)
	case "unsubscribe":
		return s.doUnsubscribe(req, cs)
	case "count":
		return Response{OK: true, Count: s.store.Len()}
	case "spec":
		spec := s.store.Spec()
		return Response{OK: true, Spec: &spec}
	case "insert":
		tr, err := wireQuery(req)
		if err == nil {
			err = s.core.Insert(context.Background(), tr)
		}
		if err != nil {
			return fail(err)
		}
		return Response{OK: true}
	case "get":
		tr, err := s.store.Get(req.OID)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, OID: tr.OID, Verts: serve.EncodeVerts(tr.Verts), Tags: s.store.Tags(tr.OID)}
	case "delete":
		if _, err := s.core.Ingest(context.Background(), []mod.Update{{OID: req.OID, Retire: true}}); err != nil {
			return fail(err)
		}
		return Response{OK: true}
	case "trip":
		wps := make([]geom.Point, len(req.Waypoints))
		for i, w := range req.Waypoints {
			wps[i] = geom.Point{X: w[0], Y: w[1]}
		}
		tr, err := mod.PlanTrip(req.OID, wps, req.Start, req.Speed)
		if err == nil {
			err = s.core.Insert(context.Background(), tr)
		}
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, OID: tr.OID, Verts: serve.EncodeVerts(tr.Verts)}
	case "query":
		switch req.Phase {
		case "":
			return s.doQuery(req)
		case "bounds":
			return s.doBounds(req)
		case "oids":
			return Response{OK: true, OIDs: s.store.MatchingOIDs(req.Where)}
		default:
			// "survivors" streams from the handler loop and never reaches
			// dispatch.
			return fail(fmt.Errorf("%w: unknown query phase %q", serve.ErrBadRequest, req.Phase))
		}
	default:
		return fail(fmt.Errorf("%w: unknown op %q", serve.ErrBadRequest, req.Op))
	}
}

// doQuery evaluates a batch of unified requests under the optional
// deadline. Per-request failures are reported inside answers; an expired
// deadline (or canceled batch) fails the whole op with the context error.
func (s *Server) doQuery(req Request) Response {
	ctx, cancel := phaseCtx(req)
	defer cancel()
	results, err := s.engine.DoBatch(ctx, s.store, req.Requests)
	if err != nil {
		return fail(err)
	}
	entries := make([]serve.Entry, len(results))
	for i := range results {
		entries[i] = serve.EncodeEntry(&results[i])
	}
	return Response{OK: true, Results: entries}
}

// phaseCtx builds the evaluation context for a query op (or one of its
// shard phases) under the request's optional deadline.
func phaseCtx(req Request) (context.Context, context.CancelFunc) {
	if req.DeadlineMS > 0 {
		return context.WithTimeout(context.Background(), time.Duration(req.DeadlineMS)*time.Millisecond)
	}
	return context.WithCancel(context.Background())
}

// wireQuery rebuilds the phase's query trajectory from the wire fields.
func wireQuery(req Request) (*trajectory.Trajectory, error) {
	return serve.WireTrajectory(req.OID, req.Verts, req.VB)
}

// doBounds answers phase 1 of the cluster bound exchange: per-slice upper
// bounds on this store's local Level-k envelope against the carried query
// trajectory.
func (s *Server) doBounds(req Request) Response {
	q, err := wireQuery(req)
	if err != nil {
		return fail(err)
	}
	ctx, cancel := phaseCtx(req)
	defer cancel()
	bounds, err := prune.SliceBoundsWhere(ctx, s.store, q, req.Tb, req.Te, req.K, req.Where)
	if err != nil {
		return fail(err)
	}
	return Response{OK: true, Bounds: encodeBounds(bounds)}
}

// doIngest applies a live update batch through the core. A mid-batch
// failure reports the applied prefix alongside the error, so callers — the
// cluster router above all — know exactly which updates landed.
func (s *Server) doIngest(req Request) Response {
	updates, err := serve.DecodeUpdates(req.Updates, true)
	if err != nil {
		return fail(err)
	}
	applied, err := s.core.Ingest(context.Background(), updates)
	resp := Response{OK: true}
	if err != nil {
		resp = fail(err)
	}
	resp.Applied = serve.EncodeApplied(applied)
	return resp
}

// doSubscribe registers a standing request owned by this connection and
// returns its ID with the initial answer. Events stream asynchronously on
// the same connection as {"ok":true,"event":{...}} lines. (The resume
// path — SubID set — never reaches here; the handler routes it to
// resumeSubscribe.)
func (s *Server) doSubscribe(req Request, cs *connState) Response {
	if req.Request == nil {
		return fail(fmt.Errorf("%w: subscribe: missing request", serve.ErrBadRequest))
	}
	id, res, err := s.core.Subscribe(context.Background(), *req.Request, cs)
	if err != nil {
		return fail(err)
	}
	cs.subs[id] = struct{}{}
	return Response{OK: true, SubID: id, Result: &res}
}

// doUnsubscribe drops a subscription by ID — one this connection owns, or
// a detached one; never another live connection's stream.
func (s *Server) doUnsubscribe(req Request, cs *connState) Response {
	if err := s.core.Unsubscribe(req.SubID, cs); err != nil {
		return fail(err)
	}
	delete(cs.subs, req.SubID)
	return Response{OK: true}
}

// encodeBounds replaces +Inf with -1: JSON has no Inf literal, and slice
// bounds are distances (never negative), so the sign bit is free.
func encodeBounds(bs []float64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		if math.IsInf(b, 1) {
			out[i] = -1
		} else {
			out[i] = b
		}
	}
	return out
}

// decodeBounds is the inverse of encodeBounds.
func decodeBounds(bs []float64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		if b < 0 {
			out[i] = math.Inf(1)
		} else {
			out[i] = b
		}
	}
	return out
}

// encodeTrajs flattens trajectories onto the shard link, packed.
func encodeTrajs(trs []*trajectory.Trajectory) []WireTraj {
	out := make([]WireTraj, len(trs))
	for i, tr := range trs {
		out[i] = WireTraj{OID: tr.OID, VB: serve.PackVerts(tr.Verts)}
	}
	return out
}

// decodeTrajs rebuilds trajectories from the wire, either vertex form.
func decodeTrajs(wts []WireTraj) ([]*trajectory.Trajectory, error) {
	out := make([]*trajectory.Trajectory, len(wts))
	for i, wt := range wts {
		tr, err := serve.WireTrajectory(wt.OID, wt.Verts, wt.VB)
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

// Client is a synchronous protocol client. Not safe for concurrent use;
// open one client per goroutine. A client that subscribes keeps reading
// request replies normally — asynchronous event lines that arrive between
// a request and its reply are buffered and drained with NextEvent.
type Client struct {
	conn    net.Conn
	sc      *bufio.Scanner
	enc     *json.Encoder
	pending []continuous.Event
}

// DialOptions configures transport security for DialWith.
type DialOptions struct {
	// TLS, when set, wraps the connection in a TLS client handshake
	// before any protocol byte moves.
	TLS *tls.Config
	// Token, when non-empty, authenticates the connection immediately
	// after dialing (the auth op); every subsequent op rides the
	// authenticated connection.
	Token string
}

// DialWith connects to a server at addr with transport security: an
// optional TLS handshake, then an optional token auth op. A server that
// rejects the token fails the dial with serve.ErrUnauthorized.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Connect(conn, addr, opts)
}

// Connect is the client side of a fresh connection to the server at addr,
// for DialWith and for callers that dial themselves (the cluster
// RemoteShard's injectable Dialer): the TLS handshake when opts.TLS is set
// (ServerName defaults from addr, which tls.Client cannot infer), then the
// token auth op when opts.Token is set. On failure the connection is
// closed.
func Connect(conn net.Conn, addr string, opts DialOptions) (*Client, error) {
	if cfg := opts.TLS; cfg != nil {
		if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				host = addr
			}
			cfg = cfg.Clone()
			cfg.ServerName = host
		}
		tc := tls.Client(conn, cfg)
		if err := tc.Handshake(); err != nil {
			conn.Close()
			return nil, err
		}
		conn = tc
	}
	c := NewClient(conn)
	if opts.Token != "" {
		if err := c.Auth(opts.Token); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Auth authenticates this connection with the server's static bearer
// token. A server with no token configured accepts any auth; a
// token-protected server rejects every other op until this succeeds.
func (c *Client) Auth(token string) error {
	_, err := c.roundTrip(Request{Op: "auth", Token: token})
	return err
}

// ClientMaxLine bounds a single response line on the client side (1 GiB).
// Deliberately far above the server's request cap: the client talks to a
// server the operator chose, and only survivors replies are framed to
// that cap — a query's answers or a large ingest batch's outcomes are
// one line, at production populations well past the 1 MiB request limit.
const ClientMaxLine = 1 << 30

// NewClient wraps an established connection (useful with net.Pipe in
// tests).
func NewClient(conn net.Conn) *Client {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), ClientMaxLine)
	return &Client{conn: conn, sc: sc, enc: json.NewEncoder(conn)}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends req and reads its reply: one line, or the frames of a
// streamed one (survivors), reassembled. Subscription events that arrive
// first are queued for NextEvent.
func (c *Client) roundTrip(req Request) (Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return Response{}, err
	}
	var acc StreamAccum
	for {
		if !c.sc.Scan() {
			if err := c.sc.Err(); err != nil {
				return Response{}, err
			}
			return Response{}, ErrConnClosed
		}
		if req.Op == "ingest" {
			// serve.ParseAppliedReply declines all but a success.
			if applied, ok := serve.ParseAppliedReply(c.sc.Bytes()); ok {
				return Response{OK: true, Applied: applied}, nil
			}
		}
		final, ev, err := acc.AddLine(c.sc.Bytes())
		switch {
		case err != nil:
			return Response{}, lineError(c.sc.Bytes(), err)
		case ev != nil:
			c.pending = append(c.pending, *ev)
		case final == nil: // a non-final frame
		case !final.OK:
			return *final, refusal{serve.Rebuild(final.Code, final.Error)}
		default:
			return *final, nil
		}
	}
}

// refusal is a coded failure reply the client read in full.
type refusal struct{ error }

func (r refusal) Unwrap() error { return r.error }

// InSync reports whether a client call that failed with err left the
// connection usable for the next call: the server refused the request
// with a coded reply the client read in full, and the refusal is not one
// the server closes the connection after (a failed auth, an oversized
// request line, plaintext on a TLS port, a subscriber's stalled event
// stream). A transport failure or an unreadable reply is not in sync.
func InSync(err error) bool {
	var r refusal
	return errors.As(err, &r) && !errors.Is(err, serve.ErrUnauthorized) &&
		!errors.Is(err, serve.ErrTooLarge) && !errors.Is(err, serve.ErrTLSRequired) &&
		!errors.Is(err, serve.ErrEventStalled)
}

// lineError classifies an unparseable reply line: TLS record bytes (a
// handshake or alert record) mean this plaintext client dialed a TLS
// server that never got to send the friendly plaintext parting line —
// surface the same serve.ErrTLSRequired identity instead of a JSON syntax
// error.
func lineError(line []byte, err error) error {
	if len(line) >= 3 && (line[0] == 0x15 || line[0] == 0x16) && line[1] == 0x03 {
		return fmt.Errorf("%w (reply is a TLS record)", errPlaintext)
	}
	return err
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(Request{Op: "ping"})
	return err
}

// Count returns the number of stored trajectories.
func (c *Client) Count() (int, error) {
	resp, err := c.roundTrip(Request{Op: "count"})
	return resp.Count, err
}

// Spec returns the server's uncertainty model. A reply without one is
// serve.ErrProtocol.
func (c *Client) Spec() (mod.PDFSpec, error) {
	resp, err := c.roundTrip(Request{Op: "spec"})
	if err != nil {
		return mod.PDFSpec{}, err
	}
	if resp.Spec == nil {
		return mod.PDFSpec{}, fmt.Errorf("%w: spec reply carries no spec", serve.ErrProtocol)
	}
	return *resp.Spec, nil
}

// Insert uploads a trajectory.
func (c *Client) Insert(tr *trajectory.Trajectory) error {
	_, err := c.roundTrip(Request{Op: "insert", OID: tr.OID, Verts: serve.EncodeVerts(tr.Verts)})
	return err
}

// GetTagged downloads a trajectory together with its tag set (nil when
// untagged) — the cluster's point-lookup path under predicates. A reply
// for another OID is serve.ErrProtocol.
func (c *Client) GetTagged(oid int64) (*trajectory.Trajectory, []string, error) {
	resp, err := c.roundTrip(Request{Op: "get", OID: oid})
	if err != nil {
		return nil, nil, err
	}
	if resp.OID != oid {
		return nil, nil, fmt.Errorf("%w: get %d answered for oid %d", serve.ErrProtocol, oid, resp.OID)
	}
	tr, err := serve.WireTrajectory(resp.OID, resp.Verts, nil)
	if err != nil {
		return nil, nil, err
	}
	return tr, resp.Tags, nil
}

// Delete removes a trajectory.
func (c *Client) Delete(oid int64) error {
	_, err := c.roundTrip(Request{Op: "delete", OID: oid})
	return err
}

// PlanTrip asks the server to plan a constant-speed trip through the
// waypoints starting at startT (the Section 2.1 server-side construction)
// and insert it; the planned trajectory is returned.
func (c *Client) PlanTrip(oid int64, waypoints []geom.Point, startT, speed float64) (*trajectory.Trajectory, error) {
	wps := make([][2]float64, len(waypoints))
	for i, w := range waypoints {
		wps[i] = [2]float64{w.X, w.Y}
	}
	resp, err := c.roundTrip(Request{Op: "trip", OID: oid, Waypoints: wps, Start: startT, Speed: speed})
	if err != nil {
		return nil, err
	}
	return serve.WireTrajectory(resp.OID, resp.Verts, nil)
}

// Query evaluates unified engine.Request descriptors remotely through the
// server's Engine.DoBatch, under an optional server-side deadline
// (deadline <= 0 means none). One Result comes back per request, in
// order, with Explain provenance; per-request failures are reported in
// the matching Result.Err. An expired deadline fails the whole call with
// the server's context error.
func (c *Client) Query(reqs []engine.Request, deadline time.Duration) ([]engine.Result, error) {
	resp, err := c.roundTrip(Request{Op: "query", Requests: reqs, DeadlineMS: deadlineMS(deadline)})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(reqs) {
		return nil, fmt.Errorf("modserver: query returned %d results for %d requests",
			len(resp.Results), len(reqs))
	}
	out := make([]engine.Result, len(reqs))
	for i, e := range resp.Results {
		out[i] = e.Decode(reqs[i].Kind)
	}
	return out, nil
}

// deadlineMS converts a client deadline to the wire field (0 = none),
// rounding sub-millisecond deadlines up so they do not vanish.
func deadlineMS(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	ms := int64(d / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	return ms
}

// ShardBounds runs phase 1 of the cluster bound exchange remotely:
// per-slice upper bounds on the server store's local Level-k envelope
// against query trajectory q over [tb, te]. deadline <= 0 means none.
func (c *Client) ShardBounds(q *trajectory.Trajectory, tb, te float64, k int, where *textidx.Predicate, deadline time.Duration) ([]float64, error) {
	resp, err := c.roundTrip(Request{
		Op: "query", Phase: "bounds",
		OID: q.OID, VB: serve.PackVerts(q.Verts), Tb: tb, Te: te, K: k, Where: where,
		DeadlineMS: deadlineMS(deadline),
	})
	if err != nil {
		return nil, err
	}
	return decodeBounds(resp.Bounds), nil
}

// ShardSurvivors runs phase 2 remotely: the server store's objects that
// can enter the 4r zone of the imposed global bounds, as trajectories,
// plus the sweep statistics. The reply arrives as a frame stream; a
// single non-more response is the degenerate one-frame case. deadline
// <= 0 means none.
func (c *Client) ShardSurvivors(q *trajectory.Trajectory, tb, te float64, bounds []float64, where *textidx.Predicate, deadline time.Duration) ([]*trajectory.Trajectory, prune.Stats, error) {
	resp, err := c.roundTrip(Request{
		Op: "query", Phase: "survivors",
		OID: q.OID, VB: serve.PackVerts(q.Verts), Tb: tb, Te: te, Where: where,
		Bounds: encodeBounds(bounds), DeadlineMS: deadlineMS(deadline),
	})
	if err != nil {
		return nil, prune.Stats{}, err
	}
	trs, err := decodeTrajs(resp.Trajs)
	if err != nil {
		return nil, prune.Stats{}, err
	}
	var stats prune.Stats
	if resp.Stats != nil {
		stats = *resp.Stats
	}
	return trs, stats, nil
}

// Ingest applies a live update batch remotely (the mod.ApplyUpdates
// contract per item) and returns the per-update outcomes in order. A
// mid-batch server failure returns the outcomes applied before it
// alongside the error — the same partial-prefix contract as the
// in-process mod.ApplyUpdates.
func (c *Client) Ingest(updates []mod.Update) ([]mod.Applied, error) {
	resp, err := c.roundTrip(Request{Op: "ingest", Updates: serve.PackUpdates(updates)})
	if err != nil {
		partial, derr := serve.DecodeApplied(resp.Applied, updates)
		if derr != nil {
			return nil, err
		}
		return partial, err
	}
	if len(resp.Applied) != len(updates) {
		return nil, fmt.Errorf("%w: ingest returned %d outcomes for %d updates",
			serve.ErrProtocol, len(resp.Applied), len(updates))
	}
	return serve.DecodeApplied(resp.Applied, updates)
}

// Subscribe registers a standing request on this connection and returns
// the subscription ID with its initial result. Subsequent ingests (from
// any connection) push diff events onto this connection; read them with
// NextEvent.
func (c *Client) Subscribe(req engine.Request) (int64, engine.Result, error) {
	resp, err := c.roundTrip(Request{Op: "subscribe", Request: &req})
	res, err := replyResult(resp, err)
	return resp.SubID, res, err
}

// Resume re-attaches this connection to a subscription a previous
// connection owned, replaying every event after fromSeq (the last
// sequence this client saw; 0 replays the whole retained backlog). The
// returned result is the subscription's current answer; the missed diff
// events follow on the event stream (NextEvent) in order, with their
// original sequence numbers, before any live events. A backlog truncated
// past fromSeq fails with continuous.ErrEventGap — take a fresh Subscribe
// (or a Resume at the current seq) and treat its answer as the new
// baseline.
func (c *Client) Resume(subID int64, fromSeq uint64) (engine.Result, error) {
	return replyResult(c.roundTrip(Request{Op: "subscribe", SubID: subID, FromSeq: fromSeq}))
}

// replyResult is a subscribe reply's answer, or its failure.
func replyResult(resp Response, err error) (engine.Result, error) {
	if err == nil && resp.Result == nil {
		err = errors.New("modserver: reply carries no result")
	}
	if err != nil {
		return engine.Result{Err: err}, err
	}
	return *resp.Result, nil
}

// Unsubscribe drops a subscription by ID.
func (c *Client) Unsubscribe(id int64) error {
	_, err := c.roundTrip(Request{Op: "unsubscribe", SubID: id})
	return err
}

// NextEvent returns the next subscription diff event, blocking until one
// arrives (or the connection closes). Events buffered while waiting for
// request replies drain first. A server that severed this stream because
// the client read too slowly is reported as serve.ErrEventStalled (from
// the server's parting event_stalled line), distinct from the bare
// ErrConnClosed of a died transport.
func (c *Client) NextEvent() (continuous.Event, error) {
	if len(c.pending) > 0 {
		ev := c.pending[0]
		c.pending = c.pending[1:]
		return ev, nil
	}
	for {
		if !c.sc.Scan() {
			if err := c.sc.Err(); err != nil {
				return continuous.Event{}, err
			}
			return continuous.Event{}, ErrConnClosed
		}
		var resp Response
		if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
			return continuous.Event{}, lineError(c.sc.Bytes(), err)
		}
		if resp.Event != nil {
			return *resp.Event, nil
		}
		if err := serve.Rebuild(resp.Code, resp.Error); !resp.OK && errors.Is(err, serve.ErrEventStalled) {
			return continuous.Event{}, err
		}
		// A non-event line here means the caller mixed request/reply
		// traffic with event draining out of order; skip it.
	}
}
