// Package modserver exposes a mod.Store over TCP with a line-delimited
// JSON protocol, plus a matching client. It is the network substrate of
// the MOD (Section 1 of the paper: users submit trips to the server and
// pose continuous probabilistic NN queries against it).
//
// Protocol: one JSON object per line in each direction.
//
//	request  := {"op": "...", ...}
//	response := {"ok": bool, "error": string?, ...}
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
//	 "deadline_ms":500}                            → {"ok":true,"answers":[{"ok":true,"oids":[...],"explain":{...}},...]}
//	{"op":"trip","oid":9,"waypoints":[[x,y],...],
//	 "start":0,"speed":0.5}                        → {"ok":true,"oid":9,"verts":[...]} (plans, then inserts as above)
//	{"op":"ingest","updates":[{"oid":1,"verts":[...],
//	 "tags":[...]},{"oid":2,"retire":true}]}       → {"ok":true,"applied":[{...},...]}
//	{"op":"subscribe","request":{...}}             → {"ok":true,"sub_id":N,"answer":{...}}, then {"ok":true,"event":{...}}*
//	{"op":"subscribe","sub_id":N,"from_seq":S}     → the same reply, then the missed events, then live ones (resume)
//	{"op":"unsubscribe","sub_id":N}                → {"ok":true}
//
// Every mutation — insert, trip, delete, ingest — is an update batch on
// the one journal → hub → fan-out path of internal/serve: it is journaled
// when a journal is configured, and standing subscriptions see its diff.
//
// Shard-serving phases of the query op (the cluster bound-exchange and
// distributed-refine protocol; +Inf bounds travel as -1 since JSON has no
// Inf literal). Wherever a trajectory moves between router and shard its
// vertices are packed: "vb" (and "pvb", an applied outcome's superseded
// plan) is base64 of 24-byte little-endian (x, y, t) float64 triples —
// serve/wire.go. That covers the query trajectory below, every trajs item,
// ingest updates and their applied outcomes in both directions; replies
// are always packed. "verts" triples are still read in every such place
// (the human ops insert/trip/get speak only them), an item carrying both
// forms or a ragged vb fails its request with "code":"bad_request", and
// either form meets the same trajectory validation.
//
//	{"op":"query","phase":"bounds","oid":1,
//	 "vb":"<base64>","tb":0,"te":60,"k":1}         → {"ok":true,"bounds":[...]}
//	{"op":"query","phase":"survivors","oid":1,
//	 "vb":"...","tb":0,"te":60,"bounds":[...]}     → {"ok":true,"more":true,"trajs":[{"oid":2,"vb":"..."},...]}*
//	                                                 {"ok":true,"trajs":[last chunk],"stats":{...}}
//	{"op":"query","phase":"all"}                   → same streamed framing, no stats
//	{"op":"query","phase":"oids"}                  → {"ok":true,"oids":[...]}
//	{"op":"query","phase":"refine","gather_id":"g",
//	 "oids":[own...],"request":{...}}              → {"ok":true,"answer":{...}} or
//	                                                 {"error":"...","code":"unknown_gather"}
//	{"op":"query","phase":"gather","gather_id":"g",
//	 "more":true,"trajs":[chunk]}                  → (no response; accumulates)
//	{"op":"query","phase":"gather","gather_id":"g",
//	 "trajs":[last chunk],"oids":[own...],
//	 "request":{...}}                              → {"ok":true,"answer":{...}} (caches + refines)
//
// The survivors and all phases stream their trajectory sets as incremental
// frames — each line stays within the server's request-line cap (advertised
// as max_line on the spec reply), so one giant gather can no longer demand
// an unbounded write buffer; intermediate frames carry "more":true and the
// final frame carries the stats. The gather/refine pair is the distributed
// refine: a router uploads the union survivor store once per connection
// under a gather ID (chunked client→server the same way, frames filled to
// max_line by exact byte count), the server caches a few unions per
// connection, and each refine evaluates a whole-MOD filter over the cached
// union with the candidate domain restricted to the shard's own survivors
// (engine.DoRestricted). A connection may have two uploads unfinished; a
// more:true frame opening a third gets "code":"gather_limit" and is closed.
//
// The query op is the unified route: it carries engine.Request descriptors
// verbatim on the wire, evaluates them through Engine.DoBatch, and returns
// one answer per request with its Explain provenance. deadline_ms (> 0)
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
// survivors/all frames get the same
// per-frame deadline: a reader that stalls mid-stream is severed instead
// of pinning the connection goroutine. Single-line request replies stay
// exempt: modest replies on slow links are legitimate.
const DefaultWriteTimeout = 10 * time.Second

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("modserver: server closed")

// ErrConnClosed reports a client call whose connection closed mid-read —
// the transport died cleanly rather than delivering a reply. Retry layers
// (the cluster RemoteShard) match on it to classify the failure as
// transient.
var ErrConnClosed = errors.New("modserver: connection closed")

// ErrEventStalled reports the server-side severance of a subscription
// stream: an event write missed the per-event deadline, so the server
// closed the connection after a best-effort coded notice. Distinguishes
// "you read too slowly" from a server crash.
var ErrEventStalled = errors.New("modserver: subscription severed: event write stalled")

// ErrSubExpired is the identity of the codeSubExpired rejection on both
// sides of the wire: the subscription sat detached past the server's
// DetachedTTL and was expired, so the client must take a fresh Subscribe.
var ErrSubExpired = serve.ErrSubExpired

// ErrUnauthorized reports a token-protected server rejecting a request:
// the connection never authenticated (or presented the wrong token), so
// the server refused the op and closed the connection. Matches across
// the wire via the coded error.
var ErrUnauthorized = errors.New("modserver: unauthorized")

// ErrTLSRequired reports a plaintext client talking to a TLS server: the
// reply bytes are a TLS record (a handshake-failure alert), not protocol
// JSON. Redialing with a tls.Config is the fix; retrying plaintext never
// succeeds, so the cluster retry layer treats it as permanent.
var ErrTLSRequired = errors.New("modserver: server requires TLS")

// codeNotFound marks a structured not-found failure on the wire so clients
// can rebuild the mod.ErrNotFound identity across the network boundary
// (the cluster router routes on it when resolving point lookups).
const codeNotFound = "not_found"

// codeEventGap marks a subscribe-resume whose from_seq has been truncated
// out of the hub's bounded backlog (continuous.ErrEventGap across the
// wire).
const codeEventGap = "event_gap"

// codeEventStalled marks the parting line the server writes before
// severing a subscriber whose event stream stalled (ErrEventStalled
// across the wire).
const codeEventStalled = "event_stalled"

// codeSubExpired marks a from_seq resume of a subscription that sat
// detached past the DetachedTTL deadline and was expired server-side.
// Unlike the generic unknown-subscription error, the typed code tells the
// client its stream is definitively gone — re-subscribe, don't retry.
const codeSubExpired = "sub_expired"

// codeUnauthorized marks an auth rejection (ErrUnauthorized across the
// wire).
const codeUnauthorized = "unauthorized"

// codeTLSRequired marks the plaintext parting line a TLS server writes to
// a client whose first bytes were not a TLS handshake (ErrTLSRequired
// across the wire). The server detects the mismatch via
// tls.RecordHeaderError and answers in plaintext — the one protocol the
// confused client can actually read.
const codeTLSRequired = "tls_required"

// codeBadRequest marks an item whose vertices could not be read
// (serve.ErrBadWire across the wire).
const codeBadRequest = "bad_request"

// codeDeadline and codeCanceled structure context failures on the wire,
// so a server-side deadline expiry keeps its context.DeadlineExceeded
// identity at the client (and up through the HTTP gateway's 504 mapping)
// instead of degrading to a generic string.
const (
	codeDeadline = "deadline_exceeded"
	codeCanceled = "canceled"
)

// wireCodes pairs each machine-readable failure code with the error
// identity it carries across the wire: codedFail stamps the first match on
// a reply, respError rebuilds it at the client.
var wireCodes = []struct {
	code string
	is   error
}{
	{codeDeadline, context.DeadlineExceeded},
	{codeCanceled, context.Canceled},
	{codeNotFound, mod.ErrNotFound},
	{codeEventGap, continuous.ErrEventGap},
	{codeSubExpired, ErrSubExpired},
	{codeEventStalled, ErrEventStalled},
	{codeUnauthorized, ErrUnauthorized},
	{codeTLSRequired, ErrTLSRequired},
	{codeBadRequest, serve.ErrBadWire},
}

// codedFail builds an error response, attaching the machine-readable
// code for failures whose identity must survive the wire.
func codedFail(err error) Response {
	resp := Response{Error: err.Error()}
	for _, wc := range wireCodes {
		if errors.Is(err, wc.is) {
			resp.Code = wc.code
			break
		}
	}
	return resp
}

// wireError carries a server-reported error message while preserving a
// sentinel identity for errors.Is across the wire.
type wireError struct {
	msg string
	is  error
}

func (e wireError) Error() string { return e.msg }
func (e wireError) Unwrap() error { return e.is }

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
	// survivors phase); "oids" lists the stored OIDs; "all" returns every
	// stored trajectory; "gather" uploads a union survivor store in
	// incremental frames and "refine" evaluates a restricted whole-MOD
	// filter against it (the distributed-refine protocol).
	Phase  string    `json:"phase,omitempty"`
	Tb     float64   `json:"tb,omitempty"`
	Te     float64   `json:"te,omitempty"`
	K      int       `json:"k,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	// Where restricts the "bounds", "survivors", and "oids" phases to the
	// predicate's matching sub-MOD (the carried query trajectory stays
	// exempt) — the shard half of the cluster's spatio-textual pruning.
	Where *textidx.Predicate `json:"where,omitempty"`

	// GatherID names a gathered union survivor store for the "gather" and
	// "refine" phases; the server caches a few per connection.
	GatherID string `json:"gather_id,omitempty"`
	// More marks a non-final "gather" upload frame: the server accumulates
	// Trajs and sends no response until the final (More=false) frame.
	More bool `json:"more,omitempty"`
	// Trajs carries one chunk of the union store on "gather" frames.
	Trajs []WireTraj `json:"trajs,omitempty"`

	// Updates carries the "ingest" op's live update batch (the
	// mod.ApplyUpdate contract: revision, extension, or insert per item).
	Updates []WireTraj `json:"updates,omitempty"`
	// OIDs carries the "owns" op's bulk ownership probe.
	OIDs []int64 `json:"oids,omitempty"`
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
// trajectory (the survivors/all phases) or one ingest update — the shapes
// shared with the HTTP gateway.
type (
	WireApplied = serve.WireApplied
	WireTraj    = serve.WireUpdate
)

// Answer is one engine.Request's outcome inside a "query" response.
type Answer struct {
	OK      bool              `json:"ok"`
	Error   string            `json:"error,omitempty"`
	IsBool  bool              `json:"is_bool,omitempty"`
	Bool    *bool             `json:"bool,omitempty"`
	OIDs    []int64           `json:"oids,omitempty"`
	Pairs   map[int64][]int64 `json:"pairs,omitempty"`
	Explain *engine.Explain   `json:"explain,omitempty"`
}

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
	Tags    []string `json:"tags,omitempty"`
	OIDs    []int64  `json:"oids,omitempty"`
	Answers []Answer `json:"answers,omitempty"`

	// Code structures selected failures (codeNotFound, codeUnknownGather)
	// so clients can rebuild error identities and retry paths.
	Code string `json:"code,omitempty"`
	// Bounds answers the "bounds" phase (+Inf encoded as -1).
	Bounds []float64 `json:"bounds,omitempty"`
	// Trajs answers the "survivors" and "all" phases, one chunk per frame.
	Trajs []WireTraj `json:"trajs,omitempty"`
	// More marks a non-final frame of a streamed reply: Trajs carries one
	// chunk and the final frame (More absent) carries the last chunk plus
	// Stats.
	More bool `json:"more,omitempty"`
	// Stats reports the survivors-phase sweep statistics (final frame only).
	Stats *prune.Stats `json:"stats,omitempty"`
	// MaxLine advertises the server's request-line cap on the "spec" reply
	// so clients can size their upload frames to fit.
	MaxLine int `json:"max_line,omitempty"`

	// Applied answers the "ingest" op, one outcome per update in order.
	Applied []WireApplied `json:"applied,omitempty"`
	// Owned answers the "owns" op, elementwise per requested OID.
	Owned []bool `json:"owned,omitempty"`
	// SubID answers the "subscribe" op; Answer carries its initial result.
	SubID  int64   `json:"sub_id,omitempty"`
	Answer *Answer `json:"answer,omitempty"`
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
	// request streams); stalled subscribers are reaped by WriteTimeout at
	// the next event instead.
	ReadTimeout time.Duration
	// WriteTimeout bounds one asynchronous subscription-event write; a
	// subscriber whose peer stops reading is closed instead of blocking
	// ingest fan-out. Request replies are exempt (large gathers on slow
	// links are legitimate). Zero means DefaultWriteTimeout; negative
	// disables the deadline.
	WriteTimeout time.Duration
	// MaxLineBytes caps one request line. Zero means MaxLine. An
	// oversized request gets one error response, then the connection is
	// closed (the line cannot be resynchronized).
	MaxLineBytes int
	// MaxGatherBytes caps the estimated wire size a connection may
	// accumulate across the frames of one gather upload before the server
	// discards it — the multi-frame analogue of MaxLineBytes. Zero means
	// DefaultMaxGatherBytes; negative disables the cap.
	MaxGatherBytes int
	// Journal, when set, makes every mutation (ingest, insert, trip,
	// delete) write-ahead durable: the batch is appended before the hub
	// applies it, and AfterApply runs after a successful apply (where a
	// wal.Log decides whether to snapshot).
	Journal Journal
	// MaxDetached and DetachedTTL bound the subscriptions closed
	// connections leave detached awaiting a from_seq resume, by count (LRU)
	// and by age; both forward to serve.New, which documents the zero and
	// negative values. Past the TTL a resume gets the typed codeSubExpired
	// rejection.
	MaxDetached int
	DetachedTTL time.Duration
	// EventBacklog is the per-subscription replay backlog bound, passed
	// through to the hub (continuous.HubOptions.BacklogCap): zero selects
	// continuous.DefaultBacklog, negative disables retention.
	EventBacklog int
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
	writeTimeout time.Duration
	maxLine      int
	maxGather    int
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

	// pending accumulates in-flight gather uploads frame by frame;
	// gathers/gatherOrder hold the few completed union stores this
	// connection may refine against (LRU, gatherCacheCap).
	pending     map[string]*gatherAccum
	gathers     map[string]*mod.Store
	gatherOrder []string
}

// send writes a request reply with no write deadline: replies can be
// legitimately large (the all/survivors gathers ship whole trajectory
// sets) and slow links must not sever them.
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
	if cs.writeTimeout > 0 {
		_ = cs.conn.SetWriteDeadline(time.Now().Add(cs.writeTimeout))
	}
	err := cs.enc.Encode(resp)
	if cs.writeTimeout > 0 {
		_ = cs.conn.SetWriteDeadline(time.Time{})
	}
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
		_ = cs.sendEvent(Response{Error: fmt.Sprintf("%v: %v", ErrEventStalled, err), Code: codeEventStalled})
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
	if o.WriteTimeout == 0 {
		o.WriteTimeout = DefaultWriteTimeout
	}
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = MaxLine
	}
	if o.MaxGatherBytes == 0 {
		o.MaxGatherBytes = DefaultMaxGatherBytes
	}
	hub := continuous.NewEngineHubWith(store, eng, continuous.HubOptions{BacklogCap: o.EventBacklog})
	return &Server{
		store: store, engine: eng,
		core:        serve.New(hub, store, o.Journal, o.MaxDetached, o.DetachedTTL),
		readTimeout: o.ReadTimeout, writeTimeout: o.WriteTimeout, maxLine: o.MaxLineBytes,
		maxGather: o.MaxGatherBytes, token: o.Token,
		conns: make(map[net.Conn]struct{}),
	}
}

// Core exposes the server's live-serving core (in-process callers and
// tests; wire clients use the subscribe/ingest ops).
func (s *Server) Core() *serve.Core { return s.core }

// Hub exposes the server's continuous-query hub.
func (s *Server) Hub() *continuous.Hub { return s.core.Hub() }

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
		// that client can parse (codeTLSRequired → ErrTLSRequired).
		if s.readTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		}
		if err := tc.Handshake(); err != nil {
			var rhe tls.RecordHeaderError
			if errors.As(err, &rhe) && rhe.Conn != nil {
				_ = json.NewEncoder(rhe.Conn).Encode(Response{Error: ErrTLSRequired.Error(), Code: codeTLSRequired})
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
				_ = cs.send(Response{Error: fmt.Sprintf("modserver: request exceeds %d bytes", s.maxLine)})
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
			resp = Response{Error: fmt.Sprintf("bad request: %v", err)}
		} else if req.Op == "auth" {
			// Auth gates everything below it in this chain. A wrong token
			// closes the connection after one coded reply — no retries on
			// an established connection, the client redials.
			if s.token != "" && !serve.TokenOK(s.token, req.Token) {
				_ = cs.send(Response{Error: ErrUnauthorized.Error() + ": bad token", Code: codeUnauthorized})
				return
			}
			cs.authed = true
		} else if s.token != "" && !cs.authed {
			_ = cs.send(Response{Error: ErrUnauthorized.Error() + ": authenticate first", Code: codeUnauthorized})
			return
		} else if req.Op == "query" && req.Phase == "gather" && req.More {
			// A non-final gather upload frame: accumulate silently — the
			// protocol answers only the final (more=false) frame, so the
			// uploader can stream chunks without a round trip each.
			if cs.pending[req.GatherID] == nil && len(cs.pending) >= gatherCacheCap {
				_ = cs.send(Response{Error: fmt.Sprintf("modserver: more than %d unfinished gather uploads", gatherCacheCap), Code: codeGatherLimit})
				return
			}
			s.accumGather(req, cs)
			continue
		} else if req.Op == "query" && (req.Phase == "survivors" || req.Phase == "all") {
			// Streamed replies write their own frames; a mid-stream write
			// failure closes the connection (the stream cannot resync).
			if !s.streamPhase(req, cs) {
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
		ans := encodeAnswer(res)
		err := cs.send(Response{OK: true, SubID: req.SubID, Answer: &ans})
		for i := 0; err == nil && i < len(backlog); i++ {
			err = cs.sendEvent(Response{OK: true, Event: &backlog[i]})
		}
		wrote = err == nil
		return err
	})
	if err != nil && wrote {
		// The core refused the resume; nothing has been written yet.
		return cs.send(codedFail(err)) == nil
	}
	return wrote
}

func (s *Server) dispatch(req Request, cs *connState) Response {
	switch req.Op {
	case "ping":
		return Response{OK: true}
	case "ingest":
		return s.doIngest(req)
	case "owns":
		owned := make([]bool, len(req.OIDs))
		for i, oid := range req.OIDs {
			_, err := s.store.Get(oid)
			owned[i] = err == nil
		}
		return Response{OK: true, Owned: owned}
	case "subscribe":
		return s.doSubscribe(req, cs)
	case "unsubscribe":
		return s.doUnsubscribe(req, cs)
	case "count":
		return Response{OK: true, Count: s.store.Len()}
	case "spec":
		spec := s.store.Spec()
		// max_line rides along so clients can size gather upload frames.
		return Response{OK: true, Spec: &spec, MaxLine: s.maxLine}
	case "insert":
		tr, err := wireQuery(req)
		if err == nil {
			err = s.core.Insert(context.Background(), tr)
		}
		if err != nil {
			return codedFail(err)
		}
		return Response{OK: true}
	case "get":
		tr, err := s.store.Get(req.OID)
		if err != nil {
			return codedFail(err)
		}
		return Response{OK: true, OID: tr.OID, Verts: serve.EncodeVerts(tr.Verts), Tags: s.store.Tags(tr.OID)}
	case "delete":
		if _, err := s.core.Ingest(context.Background(), []mod.Update{{OID: req.OID, Retire: true}}); err != nil {
			return codedFail(err)
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
			return codedFail(err)
		}
		return Response{OK: true, OID: tr.OID, Verts: serve.EncodeVerts(tr.Verts)}
	case "query":
		switch req.Phase {
		case "":
			return s.doQuery(req)
		case "bounds":
			return s.doBounds(req)
		case "oids":
			if err := req.Where.Validate(); err != nil {
				return Response{Error: err.Error()}
			}
			return Response{OK: true, OIDs: s.store.MatchingOIDs(req.Where)}
		case "gather":
			// Only final (more=false) frames reach dispatch; the handler
			// loop accumulates the rest without replying.
			return s.doGather(req, cs)
		case "refine":
			return s.doRefine(req, cs)
		default:
			// "survivors" and "all" stream from the handler loop and never
			// reach dispatch.
			return Response{Error: fmt.Sprintf("unknown query phase %q", req.Phase)}
		}
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
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
		return codedFail(err)
	}
	answers := make([]Answer, len(results))
	for i, r := range results {
		answers[i] = encodeAnswer(r)
	}
	return Response{OK: true, Answers: answers}
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
		return codedFail(err)
	}
	if err := req.Where.Validate(); err != nil {
		return Response{Error: err.Error()}
	}
	ctx, cancel := phaseCtx(req)
	defer cancel()
	bounds, err := prune.SliceBoundsWhere(ctx, s.store, q, req.Tb, req.Te, req.K, req.Where)
	if err != nil {
		return codedFail(err)
	}
	return Response{OK: true, Bounds: encodeBounds(bounds)}
}

// doIngest applies a live update batch through the core. A mid-batch
// failure reports the applied prefix alongside the error, so callers — the
// cluster router above all — know exactly which updates landed.
func (s *Server) doIngest(req Request) Response {
	updates, err := serve.DecodeUpdates(req.Updates, true)
	if err != nil {
		return codedFail(err)
	}
	applied, err := s.core.Ingest(context.Background(), updates)
	if err != nil {
		resp := codedFail(err)
		resp.Applied = serve.EncodeApplied(applied, true)
		return resp
	}
	return Response{OK: true, Applied: serve.EncodeApplied(applied, true)}
}

// encodeAnswer flattens a result (or its per-request failure) onto the
// wire Answer shape.
func encodeAnswer(res engine.Result) Answer {
	if res.Err != nil {
		return Answer{Error: res.Err.Error()}
	}
	ans := Answer{OK: true, Explain: &res.Explain}
	switch {
	case res.IsBool:
		ans.IsBool, ans.Bool = true, &res.Bool
	case res.Pairs != nil:
		ans.Pairs = res.Pairs
	default:
		// omitempty drops empty OID lists from the wire; the client reads
		// an absent key as an empty retrieval.
		ans.OIDs = res.OIDs
	}
	return ans
}

// doSubscribe registers a standing request owned by this connection and
// returns its ID with the initial answer. Events stream asynchronously on
// the same connection as {"ok":true,"event":{...}} lines. (The resume
// path — SubID set — never reaches here; the handler routes it to
// resumeSubscribe.)
func (s *Server) doSubscribe(req Request, cs *connState) Response {
	if req.Request == nil {
		return Response{Error: "subscribe: missing request"}
	}
	id, res, err := s.core.Subscribe(context.Background(), *req.Request, cs)
	if err != nil {
		return Response{Error: err.Error()}
	}
	cs.subs[id] = struct{}{}
	ans := encodeAnswer(res)
	return Response{OK: true, SubID: id, Answer: &ans}
}

// doUnsubscribe drops a subscription by ID — one this connection owns, or
// a detached one; never another live connection's stream.
func (s *Server) doUnsubscribe(req Request, cs *connState) Response {
	if err := s.core.Unsubscribe(req.SubID, cs); err != nil {
		return Response{Error: err.Error()}
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
	// frameBytes remembers the server's advertised request-line cap (the
	// spec reply's max_line) for sizing gather upload frames.
	frameBytes int
	// uploaded mirrors the server's per-connection gather cache: the last
	// gatherCacheCap gather IDs this connection uploaded, oldest first.
	uploaded []string
}

// Dial connects to a server at addr (plaintext, no auth).
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{})
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
// rejects the token fails the dial with ErrUnauthorized.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if opts.TLS != nil {
		conn, err = TLSClient(conn, opts.TLS, addr)
		if err != nil {
			return nil, err
		}
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

// TLSClient wraps an established connection in a TLS client handshake,
// defaulting the verification ServerName from addr when the config names
// none (tls.Client, unlike tls.Dial, cannot infer one). On handshake
// failure the connection is closed. Shared by DialWith and the cluster
// RemoteShard (which dials through an injectable Dialer).
func TLSClient(conn net.Conn, cfg *tls.Config, addr string) (net.Conn, error) {
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
	return tc, nil
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
// server the operator chose, and the survivors/all phases of the cluster
// protocol legitimately ship whole trajectory sets as one line — at
// production populations that is well past the 1 MiB request limit.
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

func (c *Client) roundTrip(req Request) (Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return Response{}, err
	}
	var resp Response
	for {
		if !c.sc.Scan() {
			if err := c.sc.Err(); err != nil {
				return Response{}, err
			}
			return Response{}, ErrConnClosed
		}
		resp = Response{}
		if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
			return Response{}, lineError(c.sc.Bytes(), err)
		}
		if resp.Event != nil {
			// An asynchronous subscription event raced our reply; queue it
			// for NextEvent and keep waiting for the actual response.
			c.pending = append(c.pending, *resp.Event)
			continue
		}
		break
	}
	if resp.MaxLine > 0 {
		c.frameBytes = resp.MaxLine
	}
	if !resp.OK {
		return resp, respError(resp)
	}
	return resp, nil
}

// respError rebuilds the sentinel identity of a failed reply from its
// structured code, with the server's message preserved verbatim.
func respError(resp Response) error {
	for _, wc := range wireCodes {
		if wc.code == resp.Code {
			return wireError{msg: resp.Error, is: wc.is}
		}
	}
	return errors.New(resp.Error)
}

// lineError classifies an unparseable reply line: TLS record bytes (a
// handshake or alert record) mean this plaintext client dialed a TLS
// server that never got to send the friendly plaintext parting line —
// surface the same ErrTLSRequired identity instead of a JSON syntax
// error.
func lineError(line []byte, err error) error {
	if len(line) >= 3 && (line[0] == 0x15 || line[0] == 0x16) && line[1] == 0x03 {
		return wireError{msg: fmt.Sprintf("%v (reply is a TLS record)", ErrTLSRequired), is: ErrTLSRequired}
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

// Spec returns the server's uncertainty model.
func (c *Client) Spec() (mod.PDFSpec, error) {
	resp, err := c.roundTrip(Request{Op: "spec"})
	if err != nil {
		return mod.PDFSpec{}, err
	}
	return *resp.Spec, nil
}

// Insert uploads a trajectory.
func (c *Client) Insert(tr *trajectory.Trajectory) error {
	_, err := c.roundTrip(Request{Op: "insert", OID: tr.OID, Verts: serve.EncodeVerts(tr.Verts)})
	return err
}

// Get downloads a trajectory.
func (c *Client) Get(oid int64) (*trajectory.Trajectory, error) {
	tr, _, err := c.GetTagged(oid)
	return tr, err
}

// GetTagged downloads a trajectory together with its tag set (nil when
// untagged) — the cluster's point-lookup path under predicates.
func (c *Client) GetTagged(oid int64) (*trajectory.Trajectory, []string, error) {
	resp, err := c.roundTrip(Request{Op: "get", OID: oid})
	if err != nil {
		return nil, nil, err
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
	if len(resp.Answers) != len(reqs) {
		return nil, fmt.Errorf("modserver: query returned %d answers for %d requests",
			len(resp.Answers), len(reqs))
	}
	out := make([]engine.Result, len(resp.Answers))
	for i := range resp.Answers {
		out[i], _ = answerResult(reqs[i].Kind, &resp.Answers[i])
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
	resp, err := c.roundTripStream(Request{
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

// AllTrajectories downloads every stored trajectory (the cluster gather
// path for all-pairs and reverse kinds), reassembled from the server's
// frame stream.
func (c *Client) AllTrajectories() ([]*trajectory.Trajectory, error) {
	resp, err := c.roundTripStream(Request{Op: "query", Phase: "all"})
	if err != nil {
		return nil, err
	}
	return decodeTrajs(resp.Trajs)
}

// Ingest applies a live update batch remotely (the mod.ApplyUpdate
// contract per item) and returns the per-update outcomes in order. A
// mid-batch server failure returns the outcomes applied before it
// alongside the error — the same partial-prefix contract as the
// in-process mod.ApplyUpdates.
func (c *Client) Ingest(updates []mod.Update) ([]mod.Applied, error) {
	resp, err := c.roundTrip(Request{Op: "ingest", Updates: serve.PackUpdates(updates)})
	if err != nil {
		partial, derr := serve.DecodeApplied(resp.Applied)
		if derr != nil {
			return nil, err
		}
		return partial, err
	}
	if len(resp.Applied) != len(updates) {
		return nil, fmt.Errorf("modserver: ingest returned %d outcomes for %d updates",
			len(resp.Applied), len(updates))
	}
	return serve.DecodeApplied(resp.Applied)
}

// Owns reports, elementwise, whether the server's store holds each OID —
// the bulk ownership probe behind cluster ingest placement.
func (c *Client) Owns(oids []int64) ([]bool, error) {
	resp, err := c.roundTrip(Request{Op: "owns", OIDs: oids})
	if err != nil {
		return nil, err
	}
	if len(resp.Owned) != len(oids) {
		return nil, fmt.Errorf("modserver: owns returned %d answers for %d oids", len(resp.Owned), len(oids))
	}
	return resp.Owned, nil
}

// Subscribe registers a standing request on this connection and returns
// the subscription ID with its initial result. Subsequent ingests (from
// any connection) push diff events onto this connection; read them with
// NextEvent.
func (c *Client) Subscribe(req engine.Request) (int64, engine.Result, error) {
	resp, err := c.roundTrip(Request{Op: "subscribe", Request: &req})
	if err != nil {
		return 0, engine.Result{Kind: req.Kind, Err: err}, err
	}
	res, err := answerResult(req.Kind, resp.Answer)
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
	resp, err := c.roundTrip(Request{Op: "subscribe", SubID: subID, FromSeq: fromSeq})
	if err != nil {
		return engine.Result{Err: err}, err
	}
	return answerResult("", resp.Answer)
}

// Unsubscribe drops a subscription by ID.
func (c *Client) Unsubscribe(id int64) error {
	_, err := c.roundTrip(Request{Op: "unsubscribe", SubID: id})
	return err
}

// NextEvent returns the next subscription diff event, blocking until one
// arrives (or the connection closes). Events buffered while waiting for
// request replies drain first. A server that severed this stream because
// the client read too slowly is reported as ErrEventStalled (from the
// server's parting event_stalled line), distinct from the bare
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
		if resp.Code == codeEventStalled {
			return continuous.Event{}, wireError{msg: resp.Error, is: ErrEventStalled}
		}
		// A non-event line here means the caller mixed request/reply
		// traffic with event draining out of order; skip it.
	}
}
