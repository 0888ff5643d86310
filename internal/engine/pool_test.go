package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/envelope"
	"repro/internal/mod"
	"repro/internal/queries"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// TestPoolBuildMatchesSerial: a cold build on a 4-worker pool — the probe
// and zone tests, the distance functions, LE_Alg's two top halves, and the
// probability table's instants — answers exactly as the serial one. Four
// workers on a smaller box vary the scheduling, not the outcome: the
// results are DeepEqual (but for the wall time and the worker count,
// which are the engine's own), the survivor sets are equal, and the probe
// bounds and the envelope's interval ends are the same bits.
func TestPoolBuildMatchesSerial(t *testing.T) {
	ctx := context.Background()
	available := &textidx.Predicate{All: []string{"available"}}
	for _, n := range []int{60, 600, 3000} {
		for _, seed := range []int64{7, 2025} {
			store, qOID := tagFixture(t, n, seed)
			serial, pooled := New(1), New(4)
			reqs := []Request{
				{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60},
				{Kind: KindUQ33, QueryOID: qOID, Tb: 0, Te: 60, X: 0.3},
				{Kind: KindUQ41, QueryOID: qOID, Tb: 0, Te: 60, K: 2},
				{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60, Where: available},
			}
			if n <= 600 {
				reqs = append(reqs, Request{Kind: KindUQ33, QueryOID: qOID, Tb: 17, Te: 27, P: 0.4, X: 0.3})
			}
			first, err := New(1).Do(ctx, store, reqs[0]) // the target: a UQ31 member
			if err != nil {
				t.Fatal(err)
			}
			if len(first.OIDs) == 0 {
				t.Fatalf("N=%d seed=%d: UQ31 is empty", n, seed)
			}
			reqs = append(reqs, Request{Kind: KindUQ11, QueryOID: qOID, Tb: 0, Te: 60, OID: first.OIDs[len(first.OIDs)/2]})
			for _, req := range reqs {
				name := fmt.Sprintf("N=%d seed=%d %s k=%d p=%g where=%v", n, seed, req.Kind, req.K, req.P, req.Where != nil)
				want, err := serial.Do(ctx, store, req)
				if err != nil {
					t.Fatalf("%s: serial: %v", name, err)
				}
				got, err := pooled.Do(ctx, store, req)
				if err != nil {
					t.Fatalf("%s: pooled: %v", name, err)
				}
				for _, r := range []*Result{&want, &got} {
					r.Explain.Wall, r.Explain.Workers = 0, 0
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: 4 workers answered\n%+v\nthe serial build\n%+v", name, got, want)
				}
				ps := processorOf(t, serial, store, req)
				pp := processorOf(t, pooled, store, req)
				if a, b := pp.SurvivorOIDs(), ps.SurvivorOIDs(); !slices.Equal(a, b) {
					t.Fatalf("%s: 4 workers kept %d survivors, the serial build %d", name, len(a), len(b))
				}
				for k := 1; k <= req.Rank(); k++ {
					_, a, err := pp.SliceBounds(ctx, k)
					if err != nil {
						t.Fatal(err)
					}
					_, b, err := ps.SliceBounds(ctx, k)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(a, b) {
						t.Fatalf("%s: rank-%d probe bounds\n%v\nserial\n%v", name, k, a, b)
					}
				}
				if a, b := intervalEnds(pp.Envelope()), intervalEnds(ps.Envelope()); !sameBits(a, b) {
					t.Fatalf("%s: the envelope's interval ends differ from the serial build's", name)
				}
				if a, b := pp.Envelope().Intervals, ps.Envelope().Intervals; !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: the envelope's defining functions differ from the serial build's", name)
				}
				if req.P > 0 {
					sameTables(t, name, pp, ps, store)
				}
			}
		}
	}
}

// processorOf is the memoized processor Do answered req on.
func processorOf(t *testing.T, eng *Engine, store *mod.Store, req Request) *queries.Processor {
	t.Helper()
	p, err := eng.ProcessorWhereCtx(context.Background(), store, req.QueryOID, req.Tb, req.Te, req.Where)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameTables holds the probability table a pooled processor integrates,
// its instants side by side, to the serial one's bits, row by row.
func sameTables(t *testing.T, name string, pp, ps *queries.Processor, store *mod.Store) {
	t.Helper()
	cfg := queries.ThresholdConfig{PDF: store.PDF()}
	tp, err := pp.ProbabilityTable(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := ps.ProbabilityTable(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range ps.UQ31() {
		a, err := tp.Series(oid)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ts.Series(oid)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(a, b) {
			t.Fatalf("%s: object %d's P^NN row on 4 workers\n%v\nserial\n%v", name, oid, a, b)
		}
	}
}

func intervalEnds(e *envelope.Envelope) []float64 {
	out := make([]float64, 0, 2*len(e.Intervals))
	for _, iv := range e.Intervals {
		out = append(out, iv.T0, iv.T1)
	}
	return out
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestPoolBuildCancellationCheckpoints: a memo-miss Do on a 4-worker pool
// — Do's entry check, the probe's one per slice, the sweep's, the zone
// tests' one per task, the build's one per survivor and the filter's one
// per scan member — makes the serial build's checks, and a context that
// dies at its n-th check, canceled or past its deadline, is checked
// exactly n times.
func TestPoolBuildCancellationCheckpoints(t *testing.T) {
	store, qOID := newStore(t, 600, 7)
	req := Request{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60}
	checks := func(workers int) int {
		full := &dyingCtx{Context: context.Background(), after: math.MaxInt}
		if _, err := New(workers).Do(full, store, req); err != nil {
			t.Fatal(err)
		}
		return full.calls
	}
	last := checks(4)
	if serial := checks(1); last != serial {
		t.Fatalf("a 4-worker build checked its context %d times, the serial build %d", last, serial)
	}
	for _, after := range []int{2, 3, last / 2, last} {
		ctx := &dyingCtx{Context: context.Background(), after: after}
		if _, err := New(4).Do(ctx, store, req); err != context.Canceled {
			t.Fatalf("dying at check %d of %d: err = %v, want context.Canceled", after, last, err)
		}
		if ctx.calls != after {
			t.Fatalf("a 4-worker build checked its context %d times after a cancel at check %d", ctx.calls, after)
		}
		late := &lateTimerCtx{Context: context.Background(), after: after}
		if _, err := New(4).Do(late, store, req); err != context.DeadlineExceeded {
			t.Fatalf("deadline at check %d of %d: err = %v, want context.DeadlineExceeded", after, last, err)
		}
		if late.calls != after {
			t.Fatalf("a 4-worker build checked its deadline %d times after it passed at check %d", late.calls, after)
		}
	}
}

// BenchmarkColdBuild: one memo-miss Do of UQ31 at N = 3 000 — the
// pre-pass, the build and the filter — on one worker and on two; then, on
// two workers, a UQ41 k = 2 Do (the level-2 envelope on top), and a UQ31
// Do after an untimed one-update revision, so that the first View of the
// new version and its cover are in the row.
func BenchmarkColdBuild(b *testing.B) {
	store, qOID := newStore(b, 3000, 7)
	req := Request{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := New(workers).Do(context.Background(), store, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("UQ41k2", func(b *testing.B) {
		req := Request{Kind: KindUQ41, K: 2, QueryOID: qOID, Tb: 0, Te: 60}
		b.ReportAllocs()
		for b.Loop() {
			if _, err := New(2).Do(context.Background(), store, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("afterRevision", func(b *testing.B) {
		oids := store.OIDs()
		b.ReportAllocs()
		for i := range b.N {
			b.StopTimer()
			tr, err := store.Get(oids[1+i%(len(oids)-1)])
			if err != nil {
				b.Fatal(err)
			}
			end := tr.Verts[len(tr.Verts)-1]
			p := tr.At(0.5 * (tr.Verts[0].T + end.T))
			rev := []trajectory.Vertex{{X: p.X, Y: p.Y, T: 0.5 * (tr.Verts[0].T + end.T)}, end}
			if _, err := store.ApplyUpdates([]mod.Update{{OID: tr.OID, Verts: rev}}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := New(2).Do(context.Background(), store, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
