package pool

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkForEachIndexJoin prices a short loop on a two-worker pool, the
// shape of a cold query's per-slice and per-batch loops: 8 tasks of about
// 20 µs each. It reports
//   - join-us: how long after the call the second worker is seen at work,
//     i.e. the first instant two tasks run at once (a loop the caller
//     finishes alone counts its whole wall time);
//   - wall/busy: the loop's wall time over its tasks' summed time (0.5 is
//     a perfect two-way split, 1 the caller running every task alone);
//   - alone: the share of loops in which no two tasks ever overlapped.
func BenchmarkForEachIndexJoin(b *testing.B) {
	const (
		tasks = 8
		task  = 20 * time.Microsecond
	)
	p := New(2)
	ctx := context.Background()
	var join, wall, busy time.Duration
	alone := 0
	for i := 0; i < b.N; i++ {
		var running, spent atomic.Int64
		var joined atomic.Int64 // ns after start of the first overlap; 0: none yet
		start := time.Now()
		err := p.ForEachIndex(ctx, tasks, func(int) error {
			t0 := time.Now()
			if running.Add(1) > 1 {
				joined.CompareAndSwap(0, int64(t0.Sub(start)))
			}
			for time.Since(t0) < task {
			}
			running.Add(-1)
			spent.Add(int64(time.Since(t0)))
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		w := time.Since(start)
		wall += w
		busy += time.Duration(spent.Load())
		if j := joined.Load(); j > 0 {
			join += time.Duration(j)
		} else {
			join += w
			alone++
		}
	}
	b.ReportMetric(float64(join.Microseconds())/float64(b.N), "join-us")
	b.ReportMetric(float64(wall)/float64(busy), "wall/busy")
	b.ReportMetric(float64(alone)/float64(b.N), "alone")
}
