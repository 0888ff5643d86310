package pool

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// countingCtx reports context.Canceled from its after-th Err call on, and
// counts the calls. The failing check takes a millisecond, time enough
// for every other worker to claim and check an index if the pool let it.
type countingCtx struct {
	context.Context
	after int
	calls atomic.Int64
}

func (c *countingCtx) Err() error {
	n := int(c.calls.Add(1))
	if n == c.after {
		time.Sleep(time.Millisecond)
	}
	if n >= c.after {
		return context.Canceled
	}
	return nil
}

// TestForEachIndexChecksExactly: at any worker count a loop checks its
// context once per task, and one that dies at its n-th check is checked
// exactly n times and starts no task after it.
func TestForEachIndexChecksExactly(t *testing.T) {
	const n = 200
	for _, p := range []*Pool{nil, New(1), New(2), New(7)} {
		full := &countingCtx{Context: context.Background(), after: math.MaxInt}
		var ran atomic.Int64
		if err := p.ForEachIndex(full, n, func(int) error { ran.Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		if full.calls.Load() != n || ran.Load() != n {
			t.Fatalf("%d workers: %d checks and %d tasks for %d indexes", p.Workers(), full.calls.Load(), ran.Load(), n)
		}
		for _, after := range []int{1, 2, n / 2, n} {
			ctx := &countingCtx{Context: context.Background(), after: after}
			var last atomic.Int64
			err := p.ForEachIndex(ctx, n, func(i int) error {
				for {
					if m := last.Load(); int64(i) <= m || last.CompareAndSwap(m, int64(i)) {
						return nil
					}
				}
			})
			if err != context.Canceled {
				t.Fatalf("%d workers dying at check %d: err = %v", p.Workers(), after, err)
			}
			if got := ctx.calls.Load(); got != int64(after) {
				t.Fatalf("%d workers checked %d times after a cancel at check %d", p.Workers(), got, after)
			}
			if after > 1 && last.Load() != int64(after-2) {
				t.Fatalf("%d workers ran up to task %d after a cancel at check %d", p.Workers(), last.Load(), after)
			}
		}
	}
}

// TestForEachIndexLowestError: the loop returns the lowest failed index's
// error, the one the serial loop stops at, whichever task fails first.
func TestForEachIndexLowestError(t *testing.T) {
	for _, p := range []*Pool{nil, New(2), New(8)} {
		for range 50 {
			err := p.ForEachIndex(context.Background(), 100, func(i int) error {
				if i >= 40 && i%3 == 0 {
					return fmt.Errorf("task %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "task 42" {
				t.Fatalf("%d workers: err = %v, want task 42's", p.Workers(), err)
			}
		}
	}
}

// TestForEachIndexNests: a loop inside another loop's task runs beside
// it; nothing waits for a free worker.
func TestForEachIndexNests(t *testing.T) {
	p := New(2)
	var sum atomic.Int64
	err := p.ForEachIndex(context.Background(), 8, func(i int) error {
		return p.ForEachIndex(context.Background(), 8, func(j int) error {
			sum.Add(int64(i*8 + j))
			return nil
		})
	})
	if err != nil || sum.Load() != 63*64/2 {
		t.Fatalf("nested loops: err = %v, sum = %d", err, sum.Load())
	}
	if err := p.ForEachIndex(context.Background(), 0, func(int) error { return errors.New("ran") }); err != nil {
		t.Fatalf("an empty loop: %v", err)
	}
}
