// Package engine is the concurrent batch query engine: it evaluates the
// whole-MOD continuous query variants (UQ31..UQ43 of the paper's Section 4)
// by fanning per-object candidate checks across a worker pool, and it
// amortizes the O(N log N) envelope preprocessing across a batch of query
// variants through a keyed processor memo.
//
// The two levers, in the terms of the paper:
//
//   - Parallelism. A Category 3/4 query is a filter over the MOD: for each
//     object, test its difference-distance function against the (level-k)
//     lower envelope's 4r pruning zone. The per-object kernels are pure
//     (queries.Processor is safe for concurrent use), so the engine shards
//     the candidate OID list into per-OID tasks, evaluates them on one
//     worker per CPU, and reassembles results in deterministic OID order.
//
//   - Sharing. Every query variant against the same (store, TrQ, [tb, te])
//     reuses one queries.Processor — and therefore one set of distance
//     functions, one Level-1 envelope, and one lazily grown k-level stack —
//     through a mutex-guarded memo keyed on the store's version counter, so
//     a batch of N variants pays the envelope cost once.
//
// Entry points: Do for one request, DoBatch for a batch (see request.go
// for the unified Request/Result contract), ProcessorWhereCtx for the
// memoized preprocessing alone, and Evaluate for a request on a processor
// the caller built itself (a cluster router's gathered union), which
// never enters the memo.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/mod"
	"repro/internal/pool"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/textidx"
)

// Package errors.
var (
	ErrBadKind  = errors.New("engine: unknown query kind")
	ErrNoEngine = errors.New("engine: nil engine")
)

// memoCap bounds the processor memo. Entries are evicted least-recently
// used; 64 distinct (query, window) pairs comfortably covers a batch
// workload while keeping worst-case memory bounded.
const memoCap = 64

// Engine executes batch queries against mod stores. The zero value is not
// usable; construct with New. An Engine is safe for concurrent use and is
// meant to be long-lived (one per server), since its value is the memo.
type Engine struct {
	pool     *pool.Pool
	fullScan bool

	mu    sync.Mutex
	procs map[procKey]*procSlot
	order []procKey // recency order for LRU eviction: oldest first
}

// procKey identifies one memoized preprocessing: a store at a specific
// version, a query trajectory, and a window. The version guard means a
// store mutation (insert/update/delete) naturally invalidates the entry.
type procKey struct {
	store    *mod.Store
	version  uint64
	queryOID int64
	tb, te   float64
	where    string // canonical predicate key ("" = unfiltered)
}

// procSlot builds its processor at most once even under concurrent lookups.
type procSlot struct {
	once sync.Once
	proc *queries.Processor
	err  error
}

// Options tunes engine construction.
type Options struct {
	// Workers is the worker-pool size; <= 0 means one worker per CPU.
	Workers int
	// FullScan disables the index-accelerated candidate pre-pass: every
	// processor build pays the full O(N·m) envelope preprocessing. The
	// default (false) consults the store's spatial index first and builds
	// distance functions only for the surviving candidates — answers are
	// identical either way; this switch exists for benchmarking and as an
	// operational escape hatch.
	FullScan bool
}

// New creates an engine with the given worker-pool size; workers <= 0 means
// one worker per CPU. The index-accelerated candidate pre-pass is on.
func New(workers int) *Engine {
	return NewWith(Options{Workers: workers})
}

// NewWith creates an engine from explicit options.
func NewWith(o Options) *Engine {
	return &Engine{pool: pool.New(o.Workers), fullScan: o.FullScan, procs: make(map[procKey]*procSlot)}
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.pool.Workers() }

// Pool returns the engine's worker pool, for a build the engine does not
// memoize (a cluster router's whole build over its gathered union).
func (e *Engine) Pool() *pool.Pool { return e.pool }

// ProcessorWhereCtx returns the memoized queries.Processor for the query
// trajectory qOID over [tb, te] against the store's current contents,
// restricted to the predicate's sub-MOD (plus the exempt query trajectory;
// nil means the whole MOD), building it on first use. Concurrent callers
// with the same key share one build — and, since the memo key includes the
// store version and the canonical predicate, they also share one pruned
// candidate set, and a lookup right after a Do with the same clause is a
// hit. A canceled context stops the candidate pre-pass and the envelope
// construction inside the build.
func (e *Engine) ProcessorWhereCtx(ctx context.Context, store *mod.Store, qOID int64, tb, te float64, where *textidx.Predicate) (*queries.Processor, error) {
	proc, _, err := e.processor(ctx, store, qOID, tb, te, where)
	return proc, err
}

// processor is the memo lookup behind ProcessorWhereCtx and Do. memoHit
// reports that this call reused a build instead of performing one (the
// Explain "envelope reuse" signal). A lookup touches its entry so steadily
// hot keys survive eviction (LRU, not insertion order). A build that
// failed only because a context was canceled is dropped from the memo —
// and since that context belongs to whichever caller ran the build, a
// waiter whose own context is still live retries the build under its own
// rather than inheriting a stranger's cancellation.
func (e *Engine) processor(ctx context.Context, store *mod.Store, qOID int64, tb, te float64, where *textidx.Predicate) (proc *queries.Processor, memoHit bool, err error) {
	where = where.Canon()
	for {
		key := procKey{store: store, version: store.Version(), queryOID: qOID, tb: tb, te: te, where: where.Key()}
		e.mu.Lock()
		slot, ok := e.procs[key]
		if !ok {
			slot = &procSlot{}
			e.procs[key] = slot
			e.order = append(e.order, key)
			e.evictLocked()
		} else {
			e.touchLocked(key)
		}
		e.mu.Unlock()
		built := false
		slot.once.Do(func() {
			built = true
			q, err := store.Get(qOID)
			if err != nil {
				slot.err = fmt.Errorf("engine: query trajectory: %w", err)
				return
			}
			if e.fullScan {
				// FullScan skips the index pre-pass, never the predicate:
				// the filter is semantics, so the scan runs over the
				// sub-MOD just like the pruned path (the exempt query is
				// q itself, never read from the snapshot).
				slot.proc, slot.err = queries.NewProcessorOn(ctx, e.pool, matchingTrajectories(store, where), q, tb, te, store.Radius(), nil)
			} else {
				slot.proc, slot.err = prune.ForQueryWhereCtx(ctx, e.pool, store, q, tb, te, where)
			}
		})
		if slot.err != nil {
			if errors.Is(slot.err, context.Canceled) || errors.Is(slot.err, context.DeadlineExceeded) {
				e.mu.Lock()
				if e.procs[key] == slot {
					e.removeLocked(key)
				}
				e.mu.Unlock()
				if !built && pool.CtxErr(ctx) == nil {
					// Someone else's canceled build; ours is still live.
					continue
				}
			}
			return nil, false, slot.err
		}
		return slot.proc, ok && !built, nil
	}
}

// Revise offers the engine the seed of a standing request's last
// evaluation (prune.SeedOf) and the update batch applied since. When
// prune.Revise finds the batch leaves the request's envelope levels
// standing, the successor processor takes the memo slot of the store's
// current version, and the next Do for the request — or for any other
// request on the same (query, window, predicate) — is a memo hit on it: Do
// stays the only place a Result is produced. Any other verdict leaves the
// memo alone, and that Do builds from scratch as it always has. The caller
// serializes Revise with the store's mutations (the hub's ingest lock).
func (e *Engine) Revise(ctx context.Context, store *mod.Store, req Request, seed *prune.Seed, applied []mod.Applied) prune.Verdict {
	if e.fullScan {
		return prune.NoSeed
	}
	proc, version, verdict := prune.Revise(ctx, store, seed, applied)
	if verdict != prune.Patched {
		return verdict
	}
	key := procKey{store: store, version: version, queryOID: req.QueryOID, tb: req.Tb, te: req.Te, where: req.Where.Canon().Key()}
	slot := &procSlot{proc: proc}
	slot.once.Do(func() {}) // the slot is built: lookups must not build over it
	e.mu.Lock()
	if _, ok := e.procs[key]; !ok {
		e.procs[key] = slot
		e.order = append(e.order, key)
		e.evictLocked()
	}
	e.mu.Unlock()
	return verdict
}

// touchLocked moves key to the most-recently-used end of the recency
// order. Caller holds e.mu.
func (e *Engine) touchLocked(key procKey) {
	for i, k := range e.order {
		if k == key {
			copy(e.order[i:], e.order[i+1:])
			e.order[len(e.order)-1] = key
			return
		}
	}
}

// removeLocked drops key from the memo and the recency order. Caller
// holds e.mu.
func (e *Engine) removeLocked(key procKey) {
	delete(e.procs, key)
	for i, k := range e.order {
		if k == key {
			e.order = append(e.order[:i], e.order[i+1:]...)
			return
		}
	}
}

// evictLocked drops stale-version entries eagerly (a bumped store version
// makes them unreachable, since Version only increases) and then enforces
// memoCap least-recently-used first. Caller holds e.mu.
func (e *Engine) evictLocked() {
	kept := e.order[:0]
	for _, key := range e.order {
		if key.version != key.store.Version() {
			delete(e.procs, key)
			continue
		}
		kept = append(kept, key)
	}
	e.order = kept
	for len(e.order) > memoCap {
		delete(e.procs, e.order[0])
		e.order = e.order[1:]
	}
}

// FilterOIDs evaluates pred for every OID on the worker pool and returns
// the OIDs for which it holds, in the input (sorted) order — the
// deterministic parallel counterpart of the serial UQ3x/UQ4x loops. The
// first error wins; remaining tasks still drain but their results are
// discarded.
func (e *Engine) FilterOIDs(oids []int64, pred func(oid int64) (bool, error)) ([]int64, error) {
	return e.filterOIDs(context.Background(), oids, pred)
}

// filterOIDs is the ctx-aware core of FilterOIDs, built on the same
// worker-pool loop (ForEachIndex) the whole-MOD extensions use: the
// context is checked between per-OID tasks, so a canceled request stops
// fanning work promptly and surfaces the context error instead of a
// partial answer. Results are deterministic because keep is indexed by
// input position.
func (e *Engine) filterOIDs(ctx context.Context, oids []int64, pred func(oid int64) (bool, error)) ([]int64, error) {
	if len(oids) == 0 {
		return nil, pool.CtxErr(ctx)
	}
	keep := make([]bool, len(oids))
	err := e.ForEachIndex(ctx, len(oids), func(i int) error {
		ok, err := pred(oids[i])
		if err != nil {
			return err
		}
		keep[i] = ok
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []int64
	for i, ok := range keep {
		if ok {
			out = append(out, oids[i])
		}
	}
	return out, nil
}
