package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/engine"
	"repro/internal/pool"
)

// This file is the degraded-serving half of the scatter machinery: when a
// router is built with Options.Degraded, shard failures (past the shards'
// own retry budgets) mask the shard out of the round instead of failing
// the call, and the merged answer carries Explain.Degraded plus the
// missing shards' names. The caller's context still aborts everything,
// and a round that loses every shard fails with the first real error —
// a "partial" answer over zero shards is not an answer.

// scatterDegraded fans f across every shard concurrently and waits for
// all of them, like scatter, but failures are per-shard outcomes: ok[i]
// reports whether shard i replied, and out[i] is only meaningful when it
// did. Siblings are NOT canceled by a failure (the round wants every
// reply it can get). err is non-nil only when the caller's context fired
// (its error, taking precedence) or every shard failed (the first real
// failure, so callers see why the cluster is dark).
func scatterDegraded[T any](ctx context.Context, shards []Shard, f func(ctx context.Context, i int, s Shard) (T, error)) ([]T, []bool, error) {
	out := make([]T, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := pool.CtxErr(ctx); err != nil {
				errs[i] = err
				return
			}
			out[i], errs[i] = f(ctx, i, shards[i])
		}(i)
	}
	wg.Wait()
	if err := pool.CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	ok := make([]bool, len(shards))
	var firstErr error
	any := false
	for i, err := range errs {
		if err == nil {
			ok[i] = true
			any = true
			continue
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("cluster: shard %s: %w", shards[i].Name(), err)
		}
	}
	if !any {
		return nil, nil, firstErr
	}
	return out, ok, nil
}

// scatterMode dispatches to the strict or degraded scatter per the
// router's configuration, normalizing both to the (out, ok, err) shape.
func scatterMode[T any](r *Router, ctx context.Context, f func(ctx context.Context, i int, s Shard) (T, error)) ([]T, []bool, error) {
	if r.degraded {
		return scatterDegraded(ctx, r.shards, f)
	}
	out, err := scatter(ctx, r.shards, f)
	if err != nil {
		return nil, nil, err
	}
	ok := make([]bool, len(r.shards))
	for i := range ok {
		ok[i] = true
	}
	return out, ok, nil
}

// missingOf converts an ok mask to the sorted missing-shard index list.
func missingOf(ok []bool) []int {
	var missing []int
	for i, v := range ok {
		if !v {
			missing = append(missing, i)
		}
	}
	return missing
}

// mergeMissing unions sorted missing-index lists.
func mergeMissing(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	out := append(append([]int(nil), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// applyDegraded stamps a result's Explain with the round's missing-shard
// provenance; a round that lost nothing stamps nothing.
func (r *Router) applyDegraded(ex *engine.Explain, missing []int) {
	if len(missing) == 0 {
		return
	}
	ex.Degraded = true
	names := make([]string, len(missing))
	for i, si := range missing {
		names[i] = r.shards[si].Name()
	}
	ex.MissingShards = names
}
