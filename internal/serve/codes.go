package serve

import (
	"context"
	"errors"
	"net/http"
	"strings"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/envelope"
	"repro/internal/mod"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// The one failure vocabulary of both wires. A failure travels as a code
// and its message: the line protocol's "code" beside "error", the
// gateway's {"error":{"code","message"}} under the row's HTTP status, and
// the gateway's metric outcome label. Classify finds a failure's row; a
// client rebuilds the failure from the code with Rebuild.

// Failures raised by a codec or a transport rather than by the layers
// below. The codec adds its own prefix to the message ("gateway: ...",
// "modserver: ...").
var (
	// ErrBadRequest: malformed JSON, a bad parameter, an unknown op.
	ErrBadRequest = errors.New("bad request")
	// ErrUnauthorized refuses a missing or wrong bearer token.
	ErrUnauthorized = errors.New("unauthorized")
	// ErrTooLarge refuses a request body or line past the server's cap.
	ErrTooLarge = errors.New("request too large")
	// ErrDraining refuses new work while the server shuts down.
	ErrDraining = errors.New("draining")
	// ErrUnsupported answers a route whose subsystem is not configured.
	ErrUnsupported = errors.New("not configured on this server")
	// ErrShardUnavailable is cluster.ShardUnavailableError's identity.
	ErrShardUnavailable = errors.New("cluster: shard unavailable")
	// ErrTLSRequired reports a plaintext client talking to a TLS server:
	// retrying plaintext never succeeds.
	ErrTLSRequired = errors.New("server requires TLS")
	// ErrEventStalled reports a subscription stream severed because an
	// event write missed its deadline: the client read too slowly.
	ErrEventStalled = errors.New("subscription severed: event write stalled")
)

// code is one row of the table: the name both wires carry, the HTTP
// status the gateway answers with, and the sentinels the row covers. The
// first sentinel is the identity every rebuilt failure of the row keeps.
type code struct {
	name   string
	status int
	is     []error
}

// codes is in match order: Classify takes the first row one of whose
// sentinels the failure wraps, and no sentinel sits in two rows. A
// failure no row covers is internal.
var codes = []code{
	{"bad_kind", http.StatusBadRequest, []error{engine.ErrBadKind}},
	{"bad_window", http.StatusBadRequest, []error{engine.ErrBadWindow, envelope.ErrBadWindow}},
	{"bad_rank", http.StatusBadRequest, []error{engine.ErrBadRank}},
	{"bad_frac", http.StatusBadRequest, []error{engine.ErrBadFrac}},
	{"bad_predicate", http.StatusBadRequest, []error{engine.ErrBadPredicate}},
	{"bad_tag", http.StatusBadRequest, []error{textidx.ErrBadTag}},
	{"unknown_oid", http.StatusNotFound, []error{engine.ErrUnknownOID}},
	{"not_found", http.StatusNotFound, []error{mod.ErrNotFound, ErrUnknownSub}},
	// An ingest item the store refuses as invalid is the client's fault.
	{"bad_request", http.StatusBadRequest, []error{ErrBadRequest, ErrBadWire, ErrSubLive,
		mod.ErrStaleVertex, mod.ErrShortInsert, mod.ErrRetireConflict,
		trajectory.ErrTooFewVertices, trajectory.ErrNonIncreasing, trajectory.ErrNonFinite}},
	{"sub_expired", http.StatusGone, []error{ErrSubExpired}},
	{"unauthorized", http.StatusUnauthorized, []error{ErrUnauthorized}},
	{"event_gap", http.StatusGone, []error{continuous.ErrEventGap}},
	{"shard_unavailable", http.StatusServiceUnavailable, []error{ErrShardUnavailable}},
	{"draining", http.StatusServiceUnavailable, []error{ErrDraining}},
	{"deadline_exceeded", http.StatusGatewayTimeout, []error{context.DeadlineExceeded}},
	// 499 is the non-standard "client closed request".
	{"canceled", 499, []error{context.Canceled}},
	{"body_too_large", http.StatusRequestEntityTooLarge, []error{ErrTooLarge}},
	{"unsupported", http.StatusNotImplemented, []error{ErrUnsupported}},
	// A cluster gateway meets these only from a misconfigured shard link.
	{"tls_required", http.StatusBadGateway, []error{ErrTLSRequired}},
	{"event_stalled", http.StatusInternalServerError, []error{ErrEventStalled}},
	{"internal", http.StatusInternalServerError, nil},
}

// Classify gives err's code and the HTTP status that goes with it.
func Classify(err error) (name string, status int) {
	for _, c := range codes {
		for _, is := range c.is {
			if errors.Is(err, is) {
				return c.name, c.status
			}
		}
	}
	internal := codes[len(codes)-1]
	return internal.name, internal.status
}

// Rebuild is the client half of Classify: the failure a peer reported as
// name and msg, with msg as its text. It satisfies errors.Is for the
// row's first sentinel and for every other sentinel of the row whose text
// msg carries (the server's message wraps the sentinel it failed on), so
// Classify gives name back. An unknown name rebuilds as internal.
func Rebuild(name, msg string) error {
	e := &rebuilt{msg: msg}
	for _, c := range codes {
		if c.name != name {
			continue
		}
		for i, is := range c.is {
			if i == 0 || strings.Contains(msg, is.Error()) {
				e.is = append(e.is, is)
			}
		}
	}
	return e
}

type rebuilt struct {
	msg string
	is  []error
}

func (e *rebuilt) Error() string   { return e.msg }
func (e *rebuilt) Unwrap() []error { return e.is }

// Mark gives err the identity of sentinel as well, its message unchanged:
// how a codec files a failure of its own (a parse error, an oversized
// body) under a row.
func Mark(err, sentinel error) error { return marked{err, sentinel} }

type marked struct{ err, is error }

func (e marked) Error() string   { return e.err.Error() }
func (e marked) Unwrap() []error { return []error{e.err, e.is} }

// WireError is a failure as both wires carry it inside a reply.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// EncodeError flattens err onto the wire.
func EncodeError(err error) WireError {
	name, _ := Classify(err)
	return WireError{Code: name, Message: err.Error()}
}

// Entry is one request's outcome in a batch reply (the gateway's
// /v1/batch, the line protocol's query op): the result, or the failure.
type Entry struct {
	OK     bool           `json:"ok"`
	Result *engine.Result `json:"result,omitempty"`
	Error  *WireError     `json:"error,omitempty"`
}

// EncodeEntry flattens one result; a failed one carries only its error.
func EncodeEntry(res *engine.Result) Entry {
	if res.Err != nil {
		we := EncodeError(res.Err)
		return Entry{Error: &we}
	}
	return Entry{OK: true, Result: res}
}

// Decode rebuilds the entry's result; kind names a failed one.
func (e Entry) Decode(kind engine.Kind) engine.Result {
	switch {
	case e.Error != nil:
		return engine.Result{Kind: kind, Err: Rebuild(e.Error.Code, e.Error.Message)}
	case e.Result == nil:
		return engine.Result{Kind: kind, Err: errors.New("serve: batch entry carries no result")}
	}
	return *e.Result
}
