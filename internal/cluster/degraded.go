package cluster

import (
	"slices"

	"repro/internal/engine"
)

// This file is the degraded-serving bookkeeping: when a router is built
// with Options.Degraded, a degraded scatter masks a failed shard (past the
// shards' own retry budgets) out of the round instead of failing the call,
// and the merged answer carries Explain.Degraded plus the missing shards'
// names.

// missingOf lists, ascending, the shards a round's per-shard failures
// mark as missing.
func missingOf(failed []error) []int {
	var missing []int
	for i, err := range failed {
		if err != nil {
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
