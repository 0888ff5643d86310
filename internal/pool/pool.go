// Package pool is the worker pool every per-query loop runs on: the
// engine's whole-MOD filters, and inside a cold build the pre-pass probe
// and zone tests, the distance functions, LE_Alg's two top halves and the
// P^NN instants. It is the only place in the query path that starts
// goroutines.
//
// A nil *Pool, or one with a single worker, runs the loop on the caller
// in index order — the serial loop, not a second path beside it. Every
// task writes only what belongs to its own index, so a loop's outcome does
// not depend on the worker count.
package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// Pool is a worker count. Workers are started per loop and the caller is
// one of them, so a loop nested inside another's task runs beside it
// instead of waiting for a free worker: nesting is safe.
type Pool struct {
	workers int
}

// New returns a pool of the given size; workers <= 0 means one worker per
// CPU.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's size: 1 for a nil pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// CtxErr reports whether the context is done, checking the wall clock
// against the deadline as well as Err(): a short deadline on a busy
// single-core host can expire before the runtime schedules the timer
// goroutine that cancels the context, and a checkpoint must not sail past
// it just because the timer has not fired yet.
func CtxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// IsCtxErr reports whether err is, or wraps, a context's own error
// (context.Canceled or context.DeadlineExceeded): the one failure that
// ends a batch or a scatter instead of staying with the task it hit.
func IsCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ForEachIndex runs fn(0..n-1), checking ctx (CtxErr) before every task,
// and returns the error of the lowest index that failed — the error the
// serial loop returns, since it stops there. Workers claim indexes in
// order, and claiming an index and checking ctx for it happen under one
// lock, which is also where a failure is recorded: once a check or a task
// has failed no index is claimed and no check is made, so a context that
// dies at its n-th check is checked exactly n times at any worker count.
// Tasks already running finish; their results are the caller's to
// ignore.
func (p *Pool) ForEachIndex(ctx context.Context, n int, fn func(i int) error) error {
	workers := min(p.Workers(), n)
	if workers <= 1 {
		for i := range n {
			if err := CtxErr(ctx); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	l := &loop{ctx: ctx, n: n, fn: fn, failed: n}
	l.wg.Add(workers - 1)
	for range workers - 1 {
		go l.run()
	}
	l.work()
	l.wg.Wait()
	return l.ferr
}

// loop is one ForEachIndex call's shared state, in one allocation.
type loop struct {
	ctx context.Context
	n   int
	fn  func(i int) error
	wg  sync.WaitGroup

	mu     sync.Mutex
	next   int   // the next index to claim
	failed int   // the lowest index that failed so far; n: none
	ferr   error // its error
}

func (l *loop) run() {
	defer l.wg.Done()
	l.work()
}

// work claims and runs tasks until none is left or one has failed.
func (l *loop) work() {
	for {
		l.mu.Lock()
		if l.next >= l.n || l.failed < l.n {
			l.mu.Unlock()
			return
		}
		i := l.next
		l.next++
		// The check runs under the lock on purpose: a worker that claims
		// the next index waits until this check and its failure are
		// recorded, which is what makes the number of checks exact.
		err := CtxErr(l.ctx)
		if err != nil {
			l.failLocked(i, err)
		}
		l.mu.Unlock()
		if err != nil {
			return
		}
		if err := l.fn(i); err != nil {
			l.mu.Lock()
			l.failLocked(i, err)
			l.mu.Unlock()
			return
		}
	}
}

// failLocked records task i's failure if no lower index has failed.
// Caller holds l.mu.
func (l *loop) failLocked(i int, err error) {
	if i < l.failed {
		l.failed, l.ferr = i, err
	}
}
