package cluster

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/modserver"
	"repro/internal/pool"
	"repro/internal/prune"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// Dialer opens the wire connection a RemoteShard speaks over. The
// default dials TCP; tests inject fault-wrapped dialers here.
type Dialer func(addr string) (net.Conn, error)

// Retries of an idempotent call (every Shard op except Ingest, which may
// have applied server-side before the reply was lost) after a transient
// wire failure: a refused or reset connection or a broken stream. A call
// makes at most DefaultRetryAttempts tries; the backoff before a retry
// doubles from DefaultRetryBackoff with uniform jitter in [d/2, d], and
// every sleep aborts promptly when the caller's context fires.
const (
	DefaultRetryAttempts = 3
	DefaultRetryBackoff  = 10 * time.Millisecond
)

// RemoteOptions tunes a RemoteShard's transport.
type RemoteOptions struct {
	// Dialer opens connections; nil means plain TCP.
	Dialer Dialer
	// TLS, when set, wraps every dialed connection in a TLS client
	// handshake (ServerName defaults from the shard address). A plaintext
	// dial against a TLS shard — the inverse misconfiguration — fails
	// with serve.ErrTLSRequired, which is permanent, not retried.
	TLS *tls.Config
	// Token, when non-empty, authenticates each fresh connection before
	// any shard op rides it. A rejected token surfaces as
	// serve.ErrUnauthorized (permanent).
	Token string
	// OnRetry, when set, observes each transient-failure retry (the
	// metrics hook): attempt counts from 1 and err is the failure being
	// retried. Called with the shard's mutex held — keep it cheap.
	OnRetry func(name string, attempt int, err error)
}

// RemoteShard speaks the modserver query op (bounds/survivors/oids
// phases) and the store ops to a shard-serving modserver over TCP. The
// connection is dialed lazily, serialized by a mutex (the wire client is
// synchronous), and redialed after a transport failure, an unreadable
// reply or a context cancellation poisons it; a shard's coded refusal
// leaves it in sync and cached. Idempotent calls retry transient wire
// failures (see DefaultRetryAttempts); Ingest never retries (the lost
// reply may have applied).
//
// Cancellation: the wire protocol has no cancel frame, so a canceled call
// closes the connection — the blocked read returns immediately, the
// watchdog goroutine exits, and the next call redials. The server side is
// additionally told the ctx deadline (deadline_ms), so it stops evaluating
// on its own once the deadline passes.
type RemoteShard struct {
	name string
	addr string

	mu      sync.Mutex
	cli     *modserver.Client
	index   int // position in the owning router's shard slice; -1 unrouted
	dial    Dialer
	connect modserver.DialOptions
	onRetry func(name string, attempt int, err error)
}

// NewRemoteShard names a shard served by a modserver at addr with default
// transport options. No I/O happens until the first call.
func NewRemoteShard(name, addr string) *RemoteShard {
	return NewRemoteShardWith(name, addr, RemoteOptions{})
}

// NewRemoteShardWith is NewRemoteShard with transport options.
func NewRemoteShardWith(name, addr string, opts RemoteOptions) *RemoteShard {
	d := opts.Dialer
	if d == nil {
		d = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return &RemoteShard{
		name: name, addr: addr, index: -1,
		dial: d, connect: modserver.DialOptions{TLS: opts.TLS, Token: opts.Token},
		onRetry: opts.OnRetry,
	}
}

// setIndex records the shard's position in a router's shard slice so
// ShardUnavailableError can name it by index as well as by name.
func (s *RemoteShard) setIndex(i int) {
	s.mu.Lock()
	s.index = i
	s.mu.Unlock()
}

// Name implements Shard.
func (s *RemoteShard) Name() string { return s.name }

// Close drops the cached connection (calls after Close redial).
func (s *RemoteShard) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cli == nil {
		return nil
	}
	err := s.cli.Close()
	s.cli = nil
	return err
}

// call runs f against the shard once, without retries — the Ingest path,
// where a lost reply may mean an applied batch.
func (s *RemoteShard) call(ctx context.Context, f func(c *modserver.Client) error) error {
	return s.callRetry(ctx, false, f)
}

// callIdempotent runs f with transient-failure retries.
func (s *RemoteShard) callIdempotent(ctx context.Context, f func(c *modserver.Client) error) error {
	return s.callRetry(ctx, true, f)
}

// callRetry serializes calls under the mutex and loops attempts: each
// transient failure of a retryable call backs off (exponential, jittered,
// ctx-aware) and redials. The caller's context always wins — its error is
// returned in preference to wire noise, and no attempt or backoff
// outlives it.
func (s *RemoteShard) callRetry(ctx context.Context, retryable bool, f func(c *modserver.Client) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	attempts := 1
	if retryable {
		attempts = DefaultRetryAttempts
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := pool.CtxErr(ctx); err != nil {
			return err
		}
		if attempt > 0 {
			if err := s.backoffLocked(ctx, attempt); err != nil {
				return err
			}
		}
		err := s.attemptLocked(ctx, f)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || !transientErr(err) {
			return err
		}
		if cerr := pool.CtxErr(ctx); cerr != nil {
			return cerr // the caller's own deadline: nothing is retried
		}
		if s.onRetry != nil && attempt+1 < attempts {
			s.onRetry(s.name, attempt+1, err)
		}
	}
	return lastErr
}

// backoffLocked sleeps the attempt's jittered backoff or returns the
// context error as soon as ctx fires.
func (s *RemoteShard) backoffLocked(ctx context.Context, attempt int) error {
	d := DefaultRetryBackoff << (attempt - 1)
	d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// attemptLocked is one wire attempt under the mutex, with a cancellation
// watchdog: if ctx fires while f blocks on the wire, the connection is
// closed (unblocking f promptly) and the context error is reported instead
// of the resulting read error. The watchdog is always reaped before
// returning, so a canceled scatter leaks nothing.
func (s *RemoteShard) attemptLocked(ctx context.Context, f func(c *modserver.Client) error) error {
	if s.cli == nil {
		conn, err := s.dial(s.addr)
		if err != nil {
			return &ShardUnavailableError{Shard: s.index, Name: s.name, Err: err}
		}
		// A handshake or auth failure is returned raw: a cert mismatch or
		// a wrong token is permanent (not a ShardUnavailableError), while a
		// connection that died mid-handshake is a net.Error and retries.
		cli, err := modserver.Connect(conn, s.addr, s.connect)
		if err != nil {
			return err
		}
		s.cli = cli
	}
	cli := s.cli
	done := make(chan struct{})
	reaped := make(chan struct{})
	go func() {
		defer close(reaped)
		select {
		case <-ctx.Done():
			_ = cli.Close()
		case <-done:
		}
	}()
	err := f(cli)
	close(done)
	<-reaped
	if cerr := pool.CtxErr(ctx); cerr != nil {
		// The watchdog (or the deadline) poisoned the connection; force a
		// redial next call and surface the cancellation, not the wire
		// noise it caused.
		_ = cli.Close()
		s.cli = nil
		return cerr
	}
	if err != nil && !modserver.InSync(err) {
		// A transport failure or an unreadable reply leaves the stream
		// unsynchronized; redial next call.
		_ = cli.Close()
		s.cli = nil
	}
	return err
}

// transientErr classifies wire failures worth a retry: the connection
// never opened or died mid-flight — anything where a fresh dial plausibly
// succeeds.
func transientErr(err error) bool {
	switch {
	case errors.Is(err, ErrShardUnavailable),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, modserver.ErrConnClosed):
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr)
}

// deadlineOf converts the ctx deadline to a server-side budget (0 = none).
func deadlineOf(ctx context.Context) time.Duration {
	if d, ok := ctx.Deadline(); ok {
		if left := time.Until(d); left > 0 {
			return left
		}
		return time.Nanosecond // already expired; server rejects immediately
	}
	return 0
}

// Spec implements Shard.
func (s *RemoteShard) Spec(ctx context.Context) (mod.PDFSpec, error) {
	var spec mod.PDFSpec
	err := s.callIdempotent(ctx, func(c *modserver.Client) error {
		var err error
		spec, err = c.Spec()
		return err
	})
	return spec, err
}

// Get implements Shard. A missing OID satisfies errors.Is(err,
// mod.ErrNotFound) across the wire (the server codes the failure).
func (s *RemoteShard) Get(ctx context.Context, oid int64) (*trajectory.Trajectory, []string, error) {
	var (
		tr   *trajectory.Trajectory
		tags []string
	)
	err := s.callIdempotent(ctx, func(c *modserver.Client) error {
		var err error
		tr, tags, err = c.GetTagged(oid)
		return err
	})
	return tr, tags, err
}

// Bounds implements Shard (phase 1 on the wire).
func (s *RemoteShard) Bounds(ctx context.Context, q *trajectory.Trajectory, tb, te float64, k int, where *textidx.Predicate) ([]float64, error) {
	var bounds []float64
	err := s.callIdempotent(ctx, func(c *modserver.Client) error {
		var err error
		bounds, err = c.ShardBounds(q, tb, te, k, where, deadlineOf(ctx))
		return err
	})
	return bounds, err
}

// Survivors implements Shard (phase 2 on the wire).
func (s *RemoteShard) Survivors(ctx context.Context, q *trajectory.Trajectory, tb, te float64, bounds []float64, where *textidx.Predicate) ([]*trajectory.Trajectory, prune.Stats, error) {
	var (
		trs   []*trajectory.Trajectory
		stats prune.Stats
	)
	err := s.callIdempotent(ctx, func(c *modserver.Client) error {
		var err error
		trs, stats, err = c.ShardSurvivors(q, tb, te, bounds, where, deadlineOf(ctx))
		return err
	})
	return trs, stats, err
}

// Refine implements Shard with refineUnion, without touching the wire:
// the union is in the caller's memory already.
func (s *RemoteShard) Refine(ctx context.Context, _ string, union *mod.Store, own []int64, req engine.Request) (engine.Result, error) {
	return refineUnion(ctx, union, own, req)
}

// OIDs implements Shard (the oids phase on the wire).
func (s *RemoteShard) OIDs(ctx context.Context, where *textidx.Predicate) ([]int64, error) {
	var oids []int64
	err := s.callIdempotent(ctx, func(c *modserver.Client) error {
		var cerr error
		oids, cerr = c.ShardOIDs(where)
		return cerr
	})
	return oids, err
}

// Ingest implements Shard (the modserver ingest op on the wire).
func (s *RemoteShard) Ingest(ctx context.Context, updates []mod.Update) ([]mod.Applied, error) {
	var applied []mod.Applied
	err := s.call(ctx, func(c *modserver.Client) error {
		var err error
		applied, err = c.Ingest(updates)
		return err
	})
	return applied, err
}

// Owns implements Shard from the oids phase: one round trip for the
// whole batch.
func (s *RemoteShard) Owns(ctx context.Context, oids []int64) ([]bool, error) {
	held, err := s.OIDs(ctx, nil)
	if err != nil {
		return nil, err
	}
	owned := make([]bool, len(oids))
	for i, oid := range oids {
		_, owned[i] = slices.BinarySearch(held, oid)
	}
	return owned, nil
}
