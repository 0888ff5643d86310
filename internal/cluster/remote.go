package cluster

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/modserver"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// Dialer opens the wire connection a RemoteShard speaks over. The
// default dials TCP; tests inject fault-wrapped dialers here.
type Dialer func(addr string) (net.Conn, error)

// Retry defaults; see RetryPolicy.
const (
	DefaultRetryAttempts = 3
	DefaultRetryBackoff  = 10 * time.Millisecond
	DefaultRetryMax      = 250 * time.Millisecond
)

// RetryPolicy bounds how a RemoteShard retries idempotent calls (every
// Shard op except Ingest, which may have applied server-side before the
// reply was lost) after a transient wire failure: a refused or reset
// connection, a broken stream, or a per-attempt timeout. Backoff doubles
// from BaseBackoff up to MaxBackoff with uniform jitter in [d/2, d], and
// every sleep aborts promptly when the caller's context fires.
type RetryPolicy struct {
	// Attempts is the total tries per call. Zero means
	// DefaultRetryAttempts; negative (or 1) disables retries.
	Attempts int
	// BaseBackoff is the first retry's backoff ceiling (zero means
	// DefaultRetryBackoff); MaxBackoff caps the doubling (zero means
	// DefaultRetryMax).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AttemptTimeout bounds each attempt individually, so one black-holed
	// connection costs one timeout, not the caller's whole deadline. Zero
	// means no per-attempt bound (the caller's ctx still governs).
	AttemptTimeout time.Duration
	// Seed fixes the jitter sequence for deterministic tests; zero seeds
	// from the wall clock.
	Seed int64
}

func (p RetryPolicy) attempts() int {
	if p.Attempts == 0 {
		return DefaultRetryAttempts
	}
	if p.Attempts < 1 {
		return 1
	}
	return p.Attempts
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseBackoff <= 0 {
		return DefaultRetryBackoff
	}
	return p.BaseBackoff
}

func (p RetryPolicy) max() time.Duration {
	if p.MaxBackoff <= 0 {
		return DefaultRetryMax
	}
	return p.MaxBackoff
}

// RemoteOptions tunes a RemoteShard's transport.
type RemoteOptions struct {
	// Dialer opens connections; nil means plain TCP.
	Dialer Dialer
	// Retry governs idempotent-call retries; the zero value retries
	// DefaultRetryAttempts times with default backoff.
	Retry RetryPolicy
	// TLS, when set, wraps every dialed connection in a TLS client
	// handshake (ServerName defaults from the shard address). A plaintext
	// dial against a TLS shard — the inverse misconfiguration — fails
	// with modserver.ErrTLSRequired, which is permanent, not retried.
	TLS *tls.Config
	// Token, when non-empty, authenticates each fresh connection before
	// any shard op rides it. A rejected token surfaces as
	// modserver.ErrUnauthorized (permanent).
	Token string
	// OnRetry, when set, observes each transient-failure retry (the
	// metrics hook): attempt counts from 1 and err is the failure being
	// retried. Called with the shard's mutex held — keep it cheap.
	OnRetry func(name string, attempt int, err error)
}

// RemoteShard speaks the modserver query op (bounds/survivors/all phases)
// to a shard-serving modserver over TCP. The connection is dialed lazily,
// serialized by a mutex (the wire client is synchronous), and redialed
// after a failure or a context cancellation poisons it. Idempotent calls
// retry transient wire failures per the shard's RetryPolicy; Ingest never
// retries (the lost reply may have applied).
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
	retry   RetryPolicy
	tlsCfg  *tls.Config
	token   string
	onRetry func(name string, attempt int, err error)
	rng     *rand.Rand
}

// NewRemoteShard names a shard served by a modserver at addr with default
// transport options. No I/O happens until the first call.
func NewRemoteShard(name, addr string) *RemoteShard {
	return NewRemoteShardWith(name, addr, RemoteOptions{})
}

// NewRemoteShardWith is NewRemoteShard with transport options.
func NewRemoteShardWith(name, addr string, opts RemoteOptions) *RemoteShard {
	seed := opts.Retry.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	d := opts.Dialer
	if d == nil {
		d = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return &RemoteShard{
		name: name, addr: addr, index: -1,
		dial: d, retry: opts.Retry,
		tlsCfg: opts.TLS, token: opts.Token, onRetry: opts.OnRetry,
		rng: rand.New(rand.NewSource(seed)),
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

// Addr reports the shard's server address.
func (s *RemoteShard) Addr() string { return s.addr }

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

// callIdempotent runs f with transient-failure retries per the policy.
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
		attempts = s.retry.attempts()
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := queries.CtxErr(ctx); err != nil {
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
		if s.onRetry != nil && attempt+1 < attempts {
			s.onRetry(s.name, attempt+1, err)
		}
	}
	return lastErr
}

// backoffLocked sleeps the attempt's jittered backoff or returns the
// context error as soon as ctx fires.
func (s *RemoteShard) backoffLocked(ctx context.Context, attempt int) error {
	d := s.retry.base() << (attempt - 1)
	if m := s.retry.max(); d > m || d <= 0 {
		d = m
	}
	d = d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1))
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
// watchdog: if the attempt's context fires while f blocks on the wire,
// the connection is closed (unblocking f promptly) and the context error
// is reported instead of the resulting read error. The watchdog is always
// reaped before returning, so a canceled scatter leaks nothing. A
// configured AttemptTimeout bounds just this attempt; the parent context
// error takes precedence when both fire.
func (s *RemoteShard) attemptLocked(ctx context.Context, f func(c *modserver.Client) error) error {
	actx := ctx
	cancel := func() {}
	if s.retry.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, s.retry.AttemptTimeout)
	}
	defer cancel()
	if s.cli == nil {
		conn, err := s.dial(s.addr)
		if err != nil {
			return &ShardUnavailableError{Shard: s.index, Name: s.name, Err: err}
		}
		if s.tlsCfg != nil {
			// A handshake failure is returned raw: a cert mismatch is
			// permanent (not a ShardUnavailableError), while a connection
			// that died mid-handshake is a net.Error and retries anyway.
			conn, err = modserver.TLSClient(conn, s.tlsCfg, s.addr)
			if err != nil {
				return err
			}
		}
		cli := modserver.NewClient(conn)
		if s.token != "" {
			if err := cli.Auth(s.token); err != nil {
				_ = cli.Close()
				return err
			}
		}
		s.cli = cli
	}
	cli := s.cli
	done := make(chan struct{})
	reaped := make(chan struct{})
	go func() {
		defer close(reaped)
		select {
		case <-actx.Done():
			_ = cli.Close()
		case <-done:
		}
	}()
	err := f(cli)
	close(done)
	<-reaped
	if cerr := queries.CtxErr(actx); cerr != nil {
		// The watchdog (or the deadline) poisoned the connection; force a
		// redial next call and surface the cancellation, not the wire
		// noise it caused. The parent context outranks the per-attempt
		// timeout (an expired attempt is retryable; a dead caller is not).
		_ = cli.Close()
		s.cli = nil
		if perr := queries.CtxErr(ctx); perr != nil {
			return perr
		}
		return cerr
	}
	if err != nil {
		// A wire failure leaves the stream unsynchronized; redial next call.
		_ = cli.Close()
		s.cli = nil
	}
	return err
}

// transientErr classifies wire failures worth a retry: the connection
// never opened, died mid-flight, or the attempt timed out — anything
// where a fresh dial plausibly succeeds. (A parent-context expiry never
// reaches this check; attemptLocked returns it as such.)
func transientErr(err error) bool {
	switch {
	case errors.Is(err, ErrShardUnavailable),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, modserver.ErrConnClosed),
		errors.Is(err, context.DeadlineExceeded):
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

// Len implements Shard.
func (s *RemoteShard) Len(ctx context.Context) (int, error) {
	var n int
	err := s.callIdempotent(ctx, func(c *modserver.Client) error {
		var err error
		n, err = c.Count()
		return err
	})
	return n, err
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

// Refine implements Shard (the gather/refine phases on the wire; the
// Router no longer calls it).
// The union store ships at most once per connection: the client probes
// the gather ID first and uploads the trajectories, in chunked frames,
// only on a server-side cache miss — so a batch issuing several refines
// against one gather pays the transfer once.
func (s *RemoteShard) Refine(ctx context.Context, gatherID string, union *mod.Store, own []int64, req engine.Request) (engine.Result, error) {
	var res engine.Result
	err := s.callIdempotent(ctx, func(c *modserver.Client) error {
		var cerr error
		res, cerr = c.ShardRefine(gatherID, union.All(), own, req, deadlineOf(ctx))
		return cerr
	})
	if err != nil {
		res.Kind, res.Err = req.Kind, err
	}
	return res, err
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

// All implements Shard.
func (s *RemoteShard) All(ctx context.Context) ([]*trajectory.Trajectory, error) {
	var trs []*trajectory.Trajectory
	err := s.callIdempotent(ctx, func(c *modserver.Client) error {
		var err error
		trs, err = c.AllTrajectories()
		return err
	})
	return trs, err
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

// Owns implements Shard (the modserver owns op on the wire — one round
// trip for the whole batch).
func (s *RemoteShard) Owns(ctx context.Context, oids []int64) ([]bool, error) {
	var owned []bool
	err := s.callIdempotent(ctx, func(c *modserver.Client) error {
		var err error
		owned, err = c.Owns(oids)
		return err
	})
	return owned, err
}
