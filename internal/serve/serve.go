// Package serve is the transport-free live-serving core under both wire
// codecs — the line protocol (internal/modserver) and HTTP+SSE
// (internal/gateway). A codec decodes a request, calls one Core method and
// encodes the outcome; everything a continuous query needs to stay correct
// while trajectories are revised lives here, once: the write-ahead journal
// hook, the continuous.Hub, the subscription → sink routing table, and the
// detached set (LRU bound, TTL sweep, expired-ID memory) behind from_seq
// resume.
//
// # Locking discipline
//
// One emit lock serializes Ingest, Insert, Subscribe and Resume end to end.
// Under it a batch is journaled, applied, and its diff events delivered, so
//
//	journal append order = hub apply order = per-subscription stream order
//
// and a subscription's registration (or re-attachment) is atomic with the
// answer and backlog it hands back: the first live event a sink sees is the
// one right after them — no gap, no duplicate, Seq monotone on the wire and
// not only in the hub.
//
// Called under the emit lock, and therefore bound by it: Journal.Append and
// Journal.AfterApply, Hub.Ingest/Subscribe/Replay/Answer, Sink.Deliver, and
// the replay callback of Resume. None of them may call back into the Core,
// and Sink.Deliver must not block without bound — a slow subscriber has to
// fail fast (a write deadline, a full channel) instead of wedging every
// ingest behind it. A Deliver error severs: the subscription is detached
// exactly as if its connection had closed and stays resumable.
//
// A second, short lock guards the routing table and the detached set. It
// nests inside the emit lock, is never held across a sink call or a
// journal call, and is all that Detach and Unsubscribe take — a closing
// connection never waits for an ingest in flight.
package serve

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/trajectory"
)

// Typed session errors; continuous.ErrEventGap passes through Resume
// unchanged.
var (
	// ErrSubLive rejects a resume of a subscription another sink still owns.
	ErrSubLive = errors.New("serve: subscription is owned by a live connection")
	// ErrSubExpired rejects a resume of a subscription that sat detached
	// past DefaultDetachedTTL and was expired: its backlog is gone, so the
	// client must take a fresh Subscribe — retrying cannot succeed.
	ErrSubExpired = errors.New("serve: detached subscription expired")
	// ErrUnknownSub reports a subscription ID that is neither live on the
	// calling sink nor detached.
	ErrUnknownSub = errors.New("serve: unknown subscription")
)

// DefaultMaxDetached bounds the detached (resumable) subscriptions a core
// retains; past it the oldest is unsubscribed for real. It also bounds the
// memory of expired IDs.
const DefaultMaxDetached = 64

// DefaultDetachedTTL is how long a detached subscription stays resumable.
// Long enough to ride out a reconnect backoff; short enough that churny
// subscribe/disconnect load cannot pin hub backlogs and per-ingest
// evaluation work behind readers that are never coming back.
const DefaultDetachedTTL = 2 * time.Minute

// Journal is the write-ahead hook of the ingest path (wal.Log implements
// it). Append must make the batch durable before it returns; it runs
// before the batch is applied. AfterApply runs after a successful apply
// with the post-batch store — the snapshot opportunity. Both run under the
// emit lock.
type Journal interface {
	Append(updates []mod.Update) error
	AfterApply(store *mod.Store) error
}

// Sink is all a codec supplies: where one subscriber's events go. Sinks
// are compared by identity, so one sink may own many subscriptions (a
// line-protocol connection) or exactly one (an SSE stream).
type Sink interface {
	// Deliver hands over one event, in stream order, under the emit lock.
	// An error means the subscriber is gone or stalled; the sink has
	// already torn its transport down, and the core detaches the
	// subscription.
	Deliver(ev continuous.Event) error
}

// parked is one detached subscription and when it detached.
type parked struct {
	id int64
	at time.Time
}

// Core owns the live path. All methods are safe for concurrent use.
type Core struct {
	hub     *continuous.Hub
	store   *mod.Store
	journal Journal
	now     func() time.Time // stepped by tests

	emitMu sync.Mutex

	mu   sync.Mutex
	live map[int64]Sink
	// detached is in detach order, oldest first — which is both the LRU
	// eviction order and the TTL deadline order.
	detached []parked
	// expired remembers recently TTL-expired IDs (FIFO-bounded) so a late
	// resume gets ErrSubExpired rather than ErrUnknownSub.
	expired []int64
}

// New builds a core over hub. store is the Journal.AfterApply target and
// the Insert duplicate check; a core that never journals or inserts (one
// over a cluster router hub) passes nil. journal may be nil.
func New(hub *continuous.Hub, store *mod.Store, journal Journal) *Core {
	return &Core{hub: hub, store: store, journal: journal, now: time.Now, live: make(map[int64]Sink)}
}

// Hub exposes the continuous-query hub (in-process subscribers, stats).
func (c *Core) Hub() *continuous.Hub { return c.hub }

// TokenOK is the constant-time bearer-token comparison both codecs gate on.
func TokenOK(want, got string) bool {
	return subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}

// Ingest journals, applies and fans out one update batch. A batch the
// journal rejects is not applied at all. A mid-batch apply failure still
// committed a prefix: it is returned alongside the error (the
// mod.ApplyUpdates contract — the journal holds the full batch and replay
// reproduces the same prefix), so callers know exactly which updates landed.
func (c *Core) Ingest(ctx context.Context, updates []mod.Update) ([]mod.Applied, error) {
	c.emitMu.Lock()
	defer c.emitMu.Unlock()
	return c.ingestLocked(ctx, updates)
}

// Insert is the one-update ingest behind the line protocol's insert and
// trip ops: it refuses an OID the store already holds instead of revising
// its plan. The check runs under the emit lock every mutation holds, so it
// cannot race another insert into a revision.
func (c *Core) Insert(ctx context.Context, tr *trajectory.Trajectory) error {
	c.emitMu.Lock()
	defer c.emitMu.Unlock()
	if _, err := c.store.Get(tr.OID); err == nil {
		return fmt.Errorf("%w: %d", mod.ErrDuplicateOID, tr.OID)
	}
	_, err := c.ingestLocked(ctx, []mod.Update{{OID: tr.OID, Verts: tr.Verts}})
	return err
}

func (c *Core) ingestLocked(ctx context.Context, updates []mod.Update) ([]mod.Applied, error) {
	if c.journal != nil {
		if err := c.journal.Append(updates); err != nil {
			return nil, fmt.Errorf("serve: journal append: %w", err)
		}
	}
	applied, events, err := c.hub.Ingest(ctx, updates)
	if err == nil && c.journal != nil {
		// A failed snapshot loses nothing — the appended log still reaches
		// the current state — it only defers log truncation.
		_ = c.journal.AfterApply(c.store)
	}
	// Sweep on the ingest path too: a quiet server (no connection churn)
	// would otherwise keep evaluating expired subscriptions every batch.
	c.sweep()
	// Events of a batch cut short by ctx are in the hub's backlog with their
	// Seqs assigned; deliver them so live streams stay contiguous.
	for _, ev := range events {
		c.mu.Lock()
		sink := c.live[ev.SubID]
		c.mu.Unlock()
		if sink == nil {
			continue // in-process subscription (Hub()) or a racing detach
		}
		if sink.Deliver(ev) != nil {
			c.Detach(ev.SubID, sink)
		}
	}
	return applied, err
}

// Subscribe registers a standing request routed to sink and returns its ID
// and initial answer. Registration and routing happen under the emit lock,
// so no ingest can evaluate the subscription before it is routable.
func (c *Core) Subscribe(ctx context.Context, req engine.Request, sink Sink) (int64, engine.Result, error) {
	c.emitMu.Lock()
	defer c.emitMu.Unlock()
	id, res, err := c.hub.Subscribe(ctx, req)
	if err != nil {
		return 0, res, err
	}
	c.mu.Lock()
	c.live[id] = sink
	c.mu.Unlock()
	return id, res, nil
}

// Resume re-attaches a detached subscription to sink and hands replay its
// current answer plus every retained event after fromSeq, all under the
// emit lock: whatever replay writes (or captures) precedes any live event.
// Failures: ErrSubLive, ErrSubExpired, ErrUnknownSub, or
// continuous.ErrEventGap when the backlog no longer reaches fromSeq — the
// subscription then stays detached, and the client decides whether to
// resume from the present or re-subscribe. An error from replay leaves the
// subscription attached; the codec is about to drop the sink anyway.
func (c *Core) Resume(id int64, fromSeq uint64, sink Sink, replay func(engine.Result, []continuous.Event) error) error {
	c.emitMu.Lock()
	defer c.emitMu.Unlock()
	c.sweep()
	answer, backlog, err := c.attach(id, fromSeq, sink)
	if err != nil {
		return err
	}
	return replay(answer, backlog)
}

// attach is Resume's table half. The hub is read with the table lock held
// so a concurrent Detach cannot evict id between the check and the attach.
func (c *Core) attach(id int64, fromSeq uint64, sink Sink) (answer engine.Result, backlog []continuous.Event, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	at := c.parkedIndex(id)
	owner, live := c.live[id]
	switch {
	case live && owner != sink:
		return answer, nil, fmt.Errorf("%w: %d", ErrSubLive, id)
	case !live && at < 0 && slices.Contains(c.expired, id):
		return answer, nil, fmt.Errorf("%w: %d sat detached longer than %v", ErrSubExpired, id, DefaultDetachedTTL)
	case !live && at < 0:
		return answer, nil, fmt.Errorf("%w: %d", ErrUnknownSub, id)
	}
	if backlog, err = c.hub.Replay(id, fromSeq); err != nil {
		return answer, nil, err
	}
	if answer, err = c.hub.Answer(id); err != nil {
		return answer, nil, err
	}
	if at >= 0 {
		c.detached = slices.Delete(c.detached, at, at+1)
	}
	c.live[id] = sink
	return answer, backlog, nil
}

// Unsubscribe drops a subscription for real: one sink owns, or a detached
// one (its owner is gone, and canceling beats waiting for eviction) —
// never another live sink's stream.
func (c *Core) Unsubscribe(id int64, sink Sink) error {
	c.mu.Lock()
	owner, live := c.live[id]
	at := c.parkedIndex(id)
	owned := true
	switch {
	case live && owner == sink:
		delete(c.live, id)
	case !live && at >= 0:
		c.detached = slices.Delete(c.detached, at, at+1)
	default:
		owned = false
	}
	c.mu.Unlock()
	if !owned || !c.hub.Unsubscribe(id) {
		return fmt.Errorf("%w: %d", ErrUnknownSub, id)
	}
	return nil
}

// Detach parks a subscription whose sink is going away: it stays live in
// the hub — events keep accumulating in its bounded backlog — awaiting a
// Resume, until the LRU bound or the TTL unsubscribes it. A no-op unless
// sink still owns id, so a codec may call it unconditionally on teardown
// (after a sever, after a resume moved the subscription elsewhere).
func (c *Core) Detach(id int64, sink Sink) {
	c.mu.Lock()
	if owner, live := c.live[id]; !live || owner != sink {
		c.mu.Unlock()
		return
	}
	delete(c.live, id)
	dead := c.sweepLocked()
	c.detached = append(c.detached, parked{id, c.now()})
	if over := len(c.detached) - DefaultMaxDetached; over > 0 {
		for _, p := range c.detached[:over] {
			dead = append(dead, p.id)
		}
		c.detached = slices.Delete(c.detached, 0, over)
	}
	c.mu.Unlock()
	c.unsubscribe(dead)
}

// Detached reports whether id is parked awaiting a resume.
func (c *Core) Detached(id int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parkedIndex(id) >= 0
}

func (c *Core) parkedIndex(id int64) int {
	return slices.IndexFunc(c.detached, func(p parked) bool { return p.id == id })
}

// sweep expires every detached subscription whose TTL has passed.
func (c *Core) sweep() {
	c.mu.Lock()
	dead := c.sweepLocked()
	c.mu.Unlock()
	c.unsubscribe(dead)
}

// sweepLocked is sweep's table half: it returns the expired IDs for the
// caller to unsubscribe outside c.mu.
func (c *Core) sweepLocked() []int64 {
	if len(c.detached) == 0 {
		return nil
	}
	now, n := c.now(), 0
	for n < len(c.detached) && now.Sub(c.detached[n].at) >= DefaultDetachedTTL {
		n++
	}
	var dead []int64
	for _, p := range c.detached[:n] {
		dead = append(dead, p.id)
	}
	c.detached = slices.Delete(c.detached, 0, n)
	c.expired = append(c.expired, dead...)
	if over := len(c.expired) - DefaultMaxDetached; over > 0 {
		c.expired = slices.Delete(c.expired, 0, over)
	}
	return dead
}

func (c *Core) unsubscribe(ids []int64) {
	for _, id := range ids {
		c.hub.Unsubscribe(id)
	}
}
