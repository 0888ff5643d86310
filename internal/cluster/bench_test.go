package cluster_test

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/textidx"
)

// BenchmarkLocalShardExchange prices one LocalShard's side of the bound
// exchange for one query: a Bounds call, then the Survivors call under
// the bounds it returned, unfiltered and under a tag predicate, on a
// 2 000-object shard. Every iteration asks a window no earlier iteration
// asked, as a stream of fresh queries would.
func BenchmarkLocalShardExchange(b *testing.B) {
	store, trs := tagStore(b, 2000, 0.5, 11)
	shard := cluster.NewLocalShard("s0", store)
	q := trs[0]
	ctx := context.Background()
	for _, bc := range []struct {
		name  string
		where *textidx.Predicate
	}{
		{"unfiltered", nil},
		{"filtered", &textidx.Predicate{All: []string{"available"}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				te := 30 + float64(i)*1e-6
				bounds, err := shard.Bounds(ctx, q, 0, te, 1, bc.where)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := shard.Survivors(ctx, q, 0, te, bounds, bc.where); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
