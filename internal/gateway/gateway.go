// Package gateway is the production HTTP front door for the repro
// engine: a JSON API over net/http with bearer-token auth, per-request
// deadlines, a typed error taxonomy mapped onto status codes, an SSE
// continuous-query stream riding continuous.Hub with from_seq resume,
// and a Prometheus metrics surface.
//
// Routes:
//
//	POST /v1/query      one engine.Request -> engine.Result
//	POST /v1/batch      many requests -> per-request result-or-error
//	POST /v1/ingest     live trajectory updates (journaled when configured)
//	GET  /v1/subscribe  SSE diff stream for a standing query
//	GET  /healthz       liveness
//	GET  /readyz        readiness (503 while draining)
//	GET  /metrics       Prometheus text exposition (when configured)
//	GET  /openapi.yaml  the committed OpenAPI 3 description
//
// The /v1 routes require `Authorization: Bearer <token>` when a token is
// configured; the operational routes stay open. The same engine.Request
// and engine.Result JSON shapes cross this seam as cross the TCP
// modserver protocol, so an HTTP client and a TCP client see identical
// answers.
//
// A spatio-textual query restricts the answer universe to the tagged
// sub-MOD via the request's `where` predicate ({all, any, not} tag
// lists), and ingest updates may carry a `tags` list (null = unchanged,
// [] = clear):
//
//	curl -sk https://localhost:8443/v1/query \
//	  -H "Authorization: Bearer $TOKEN" \
//	  -d '{"kind":"UQ31","query_oid":7,"tb":0,"te":60,
//	       "where":{"all":["available"],"not":["pool"]}}'
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api/openapi"
	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/serve"
)

// The gateway's own failures, filed under serve's rows.
var (
	errUnauthorized = fmt.Errorf("gateway: %w", serve.ErrUnauthorized)
	errDraining     = fmt.Errorf("gateway: %w", serve.ErrDraining)
	errNoHub        = fmt.Errorf("gateway: %w: no live hub", serve.ErrUnsupported)
)

// DefaultMaxBodyBytes caps request bodies (8 MiB holds a ~40k-update
// ingest batch with room to spare).
const DefaultMaxBodyBytes = 8 << 20

// DefaultEventBuffer is the per-stream event channel depth; a consumer
// that falls this many events behind is severed (and left resumable).
const DefaultEventBuffer = 256

// Backend evaluates engine requests. *cluster.Router satisfies it
// directly; EngineBackend adapts a local engine+store pair.
type Backend interface {
	Do(ctx context.Context, req engine.Request) (engine.Result, error)
	DoBatch(ctx context.Context, reqs []engine.Request) ([]engine.Result, error)
}

// EngineBackend adapts a local engine over one store to Backend.
type EngineBackend struct {
	Eng   *engine.Engine
	Store *mod.Store
}

// Do evaluates one request on the local engine.
func (b EngineBackend) Do(ctx context.Context, req engine.Request) (engine.Result, error) {
	return b.Eng.Do(ctx, b.Store, req)
}

// DoBatch evaluates a batch on the local engine.
func (b EngineBackend) DoBatch(ctx context.Context, reqs []engine.Request) ([]engine.Result, error) {
	return b.Eng.DoBatch(ctx, b.Store, reqs)
}

// Journal is the write-ahead hook of the ingest path (wal.Log implements
// it).
type Journal = serve.Journal

// Options configures a Server. Backend is required; everything else is
// optional.
type Options struct {
	// Backend answers /v1/query and /v1/batch.
	Backend Backend
	// Hub powers /v1/ingest and /v1/subscribe; nil disables both
	// (they answer 501). A severed stream stays resumable within
	// serve.DefaultMaxDetached and serve.DefaultDetachedTTL.
	Hub *continuous.Hub
	// Journal, when set with Hub, makes ingest write-ahead durable.
	// Store is the AfterApply snapshot target (required with Journal).
	Journal Journal
	Store   *mod.Store
	// Token, when non-empty, gates every /v1 route behind
	// `Authorization: Bearer <token>`.
	Token string
	// MaxBodyBytes caps request bodies (DefaultMaxBodyBytes when 0).
	MaxBodyBytes int64
	// RequestTimeout is the server-side ceiling on per-request
	// deadlines; client deadline_ms values are clamped to it. 0 means
	// no ceiling.
	RequestTimeout time.Duration
	// Metrics, when set, records traffic and serves GET /metrics.
	Metrics *Metrics
}

// Server is the HTTP gateway. Create with New, serve with Serve (wrap
// the listener with tls.NewListener for TLS), stop with Shutdown.
type Server struct {
	opts     Options
	handler  http.Handler
	hs       *http.Server
	draining atomic.Bool

	// core is the live path behind /v1/ingest and /v1/subscribe (nil
	// without Options.Hub).
	core *serve.Core
	// drain is closed by Shutdown; every SSE handler selects on it.
	drain     chan struct{}
	drainOnce sync.Once
}

// New builds a Server from opts.
func New(opts Options) (*Server, error) {
	if opts.Backend == nil {
		return nil, errors.New("gateway: Options.Backend is required")
	}
	if opts.Journal != nil && opts.Store == nil {
		return nil, errors.New("gateway: Options.Journal requires Options.Store")
	}
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{opts: opts, drain: make(chan struct{})}
	if opts.Hub != nil {
		s.core = serve.New(opts.Hub, opts.Store, opts.Journal)
	}
	s.handler = s.buildHandler()
	s.hs = &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	return s, nil
}

// Handler returns the gateway's full handler (middleware included) for
// mounting under a custom http.Server, e.g. in tests.
func (s *Server) Handler() http.Handler { return s.handler }

// Core exposes the live-serving core behind /v1/ingest and /v1/subscribe
// (nil without Options.Hub) to in-process callers and tests.
func (s *Server) Core() *serve.Core { return s.core }

// Serve accepts connections on l until Shutdown (or Close on the
// listener). A clean shutdown returns nil.
func (s *Server) Serve(l net.Listener) error {
	err := s.hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the gateway: readiness flips to 503, live SSE streams
// are severed (their subscriptions stay resumable in-process), and
// in-flight requests get until ctx expires to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Each stream handler unwinds and detaches its subscription.
	s.drainOnce.Do(func() { close(s.drain) })
	return s.hs.Shutdown(ctx)
}

func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.v1(s.handleQuery))
	mux.HandleFunc("POST /v1/batch", s.v1(s.handleBatch))
	mux.HandleFunc("POST /v1/ingest", s.v1(s.handleIngest))
	mux.HandleFunc("GET /v1/subscribe", s.v1(s.handleSubscribe))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /openapi.yaml", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/yaml")
		_, _ = w.Write(openapi.Spec)
	})
	if reg := s.opts.Metrics.Registry(); reg != nil {
		mux.Handle("GET /metrics", reg.Handler())
	}
	// Outermost: body cap, then request accounting keyed on the route
	// pattern the mux resolves.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
			// No read passes the cap, so a buffer sized from the declared
			// length (readBody) must not either.
			r.ContentLength = min(r.ContentLength, s.opts.MaxBodyBytes)
		}
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		mux.ServeHTTP(rec, r)
		s.opts.Metrics.recordHTTP(r.Pattern, rec.status(), time.Since(start))
	})
}

// v1 wraps an API handler with the bearer-token gate.
func (s *Server) v1(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if tok := s.opts.Token; tok != "" {
			bearer, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || !serve.TokenOK(tok, bearer) {
				w.Header().Set("WWW-Authenticate", `Bearer realm="repro-gateway"`)
				writeError(w, errUnauthorized)
				return
			}
		}
		h(w, r)
	}
}

// statusRecorder captures the status code for metrics and forwards
// Flush so SSE streaming survives the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.code == 0 {
		sr.code = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.code == 0 {
		sr.code = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer's
// deadline and flush support.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

func (sr *statusRecorder) status() int {
	if sr.code == 0 {
		return http.StatusOK
	}
	return sr.code
}

// ---- wire shapes -------------------------------------------------------

// queryRequest is the /v1/query body: an engine.Request plus transport
// controls.
type queryRequest struct {
	engine.Request
	// DeadlineMS bounds the evaluation; clamped to the server's
	// RequestTimeout ceiling when one is configured.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

type batchRequest struct {
	Requests   []engine.Request `json:"requests"`
	DeadlineMS int64            `json:"deadline_ms,omitempty"`
}

// A batch reply item and an error body carry serve's shapes, as the line
// protocol's query op does.
type batchEntry = serve.Entry

type batchResponse struct {
	Results []batchEntry `json:"results"`
}

type apiError = serve.WireError

type errorBody struct {
	Error apiError `json:"error"`
}

// The ingest body and reply carry the shapes the line protocol's ingest
// op does (serve.WireUpdate, serve.WireApplied), but a reply item is the
// update's outcome only (serve.EncodeOutcomes): no caller reads the plans
// back. A failed batch's reply carries the error beside the outcomes of
// the prefix it applied.
type ingestRequest struct {
	Updates []serve.WireUpdate `json:"updates"`
}

type ingestResponse struct {
	Error   *apiError           `json:"error,omitempty"`
	Applied []serve.WireApplied `json:"applied,omitempty"`
}

// ---- error taxonomy ----------------------------------------------------

// errStatus is serve.Classify as the gateway answers it: (HTTP status,
// machine-readable code). The code set is serve's table; it doubles as
// the metrics outcome label.
func errStatus(err error) (int, string) {
	code, status := serve.Classify(err)
	return status, code
}

// badReq files a client-side decode failure (malformed JSON, a bad query
// parameter) as bad_request, its message unchanged.
func badReq(err error) error { return serve.Mark(err, serve.ErrBadRequest) }

func writeError(w http.ResponseWriter, err error) {
	status, _ := errStatus(err)
	writeJSON(w, status, errorBody{serve.EncodeError(err)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = json.Marshal(errorBody{serve.EncodeError(errors.New("encode failure"))})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b = append(b, '\n')
	_, _ = w.Write(b)
}

// ---- query/batch handlers ----------------------------------------------

// reqCtx derives the evaluation context: the client's deadline_ms,
// clamped by the server's RequestTimeout ceiling, over the request's
// own cancellation.
func (s *Server) reqCtx(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := time.Duration(deadlineMS) * time.Millisecond
	if max := s.opts.RequestTimeout; max > 0 && (d <= 0 || d > max) {
		d = max
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return context.WithCancel(r.Context())
}

// decodeBody decodes one JSON body. A read past the body cap is
// body_too_large, any other failure bad_request.
func decodeBody(body io.Reader, v any) error {
	err := json.NewDecoder(&skipSpace{r: body}).Decode(v)
	var mbe *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &mbe):
		return serve.Mark(err, serve.ErrTooLarge)
	}
	return badReq(fmt.Errorf("gateway: bad request body: %w", err))
}

// skipSpace drops the JSON whitespace a body opens with before a
// json.Decoder reads it: the decoder keeps leading whitespace in its
// buffer as part of the value, doubling the buffer up to the body's
// length, where skipping it here costs nothing.
type skipSpace struct {
	r    io.Reader
	seen bool // a byte past the leading whitespace has been read
}

func (s *skipSpace) Read(p []byte) (int, error) {
	for !s.seen {
		n, err := s.r.Read(p)
		if rest := bytes.TrimLeft(p[:n], " \t\r\n"); len(rest) > 0 {
			s.seen = true
			return copy(p, rest), err
		}
		if err != nil {
			return 0, err
		}
	}
	return s.r.Read(p)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var qr queryRequest
	if err := decodeBody(r.Body, &qr); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.reqCtx(r, qr.DeadlineMS)
	defer cancel()
	res, err := s.opts.Backend.Do(ctx, qr.Request)
	s.opts.Metrics.recordQuery(res, qr.Where != nil)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var br batchRequest
	if err := decodeBody(r.Body, &br); err != nil {
		writeError(w, err)
		return
	}
	if len(br.Requests) == 0 {
		writeError(w, badReq(errors.New("gateway: empty batch")))
		return
	}
	ctx, cancel := s.reqCtx(r, br.DeadlineMS)
	defer cancel()
	results, err := s.opts.Backend.DoBatch(ctx, br.Requests)
	if err != nil && len(results) != len(br.Requests) {
		// A transport-level failure (deadline, shard loss) with no
		// per-request results to report.
		writeError(w, err)
		return
	}
	out := batchResponse{Results: make([]batchEntry, len(results))}
	for i := range results {
		s.opts.Metrics.recordQuery(results[i], br.Requests[i].Where != nil)
		out.Results[i] = serve.EncodeEntry(&results[i])
	}
	writeJSON(w, http.StatusOK, out)
}

// ---- ingest ------------------------------------------------------------

// decodeIngest is decodeBody without reflection when serve.ParseIngestBody
// takes the whole body. A declined body goes to decodeBody as the same bytes
// and then the same read error (a MaxBytesReader repeats it), so status and
// message are decodeBody's on every input.
func decodeIngest(r *http.Request, ir *ingestRequest) error {
	body, err := readBody(r)
	if updates, ok := serve.ParseIngestBody(body); ok && err == nil {
		ir.Updates = updates
		return nil
	}
	return decodeBody(io.MultiReader(bytes.NewReader(body), r.Body), ir)
}

// readFirst caps readBody's first buffer, so what a request holds before
// its bytes arrive does not follow the length it declares: a client must
// send this much before the server takes the declared length.
const readFirst = 64 << 10

// readBody is io.ReadAll that, once its first buffer (at most readFirst)
// fills, takes the declared length (which the server caps at MaxBodyBytes)
// and a byte over it in one step, so a body that keeps its word costs
// about its length, not io.ReadAll's growth steps (about five times it).
// A body of unknown length, or one past its word, grows as io.ReadAll's.
func readBody(r *http.Request) ([]byte, error) {
	b := make([]byte, 0, min(max(r.ContentLength, 511), readFirst)+1)
	for {
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) < cap(b) {
			continue
		}
		if int64(len(b)) <= r.ContentLength {
			b = append(make([]byte, 0, r.ContentLength+1), b...)
		} else {
			b = append(b, 0)[:len(b)]
		}
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.core == nil {
		writeError(w, errNoHub)
		return
	}
	if s.draining.Load() {
		writeError(w, errDraining)
		return
	}
	var ir ingestRequest
	if err := decodeIngest(r, &ir); err != nil {
		writeError(w, err)
		return
	}
	if len(ir.Updates) == 0 {
		writeError(w, badReq(errors.New("gateway: empty ingest batch")))
		return
	}
	updates, err := serve.DecodeUpdates(ir.Updates, false)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.reqCtx(r, 0)
	defer cancel()
	applied, err := s.core.Ingest(ctx, updates)
	s.opts.Metrics.recordIngest(len(ir.Updates), err)
	reply, status := ingestResponse{Applied: serve.EncodeOutcomes(applied)}, http.StatusOK
	if err != nil {
		we := serve.EncodeError(err)
		reply.Error = &we
		status, _ = errStatus(err)
	}
	writeJSON(w, status, reply)
}
