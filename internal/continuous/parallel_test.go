package continuous

// The gate of the side-by-side evaluation pass: a hub whose dirty groups
// evaluate on a 4-worker pool must be indistinguishable from the serial
// hub of engine.New(1) — the same events with the same provenance, the
// same answers, the same counters — and a batch cut short by its context
// must leave exactly what the serial loop leaves.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
)

// sharedKeyPairs adds, beside standingWorld's questions, partners that
// stand on the same (query, window, predicate) under another kind — a
// UQ33 beside a UQ31, a rank-2 UQ41 beside a UQ11, a UQ11 beside a
// tag-filtered UQ41 and a UQ33 beside a tag-filtered UQ31 — so one batch
// holds several dirty groups on one engine memo key. adjacent puts each
// partner directly after its question, so a pool claims the two groups
// back to back; otherwise the partners follow every question, so a chain
// runs a group ahead of lower-ID ones.
func sharedKeyPairs(t *testing.T, reqs []engine.Request, adjacent bool) []engine.Request {
	t.Helper()
	uq31, uq11, fuq41, fuq31 := reqs[0], reqs[2], reqs[3], reqs[4]
	if uq31.Kind != engine.KindUQ31 || uq11.Kind != engine.KindUQ11 || fuq41.Kind != engine.KindUQ41 || fuq41.Where == nil || fuq31.Kind != engine.KindUQ31 || fuq31.Where == nil {
		t.Fatalf("standingShape moved: %+v", reqs[:5])
	}
	a := uq31
	a.Kind, a.X = engine.KindUQ33, 0.5
	b := uq11
	b.Kind, b.OID, b.K = engine.KindUQ41, 0, 2
	c := fuq41
	c.Kind, c.OID, c.K = engine.KindUQ11, uq11.OID, 0
	for c.OID == c.QueryOID {
		c.OID = uq11.QueryOID
	}
	d := fuq31
	d.Kind, d.X = engine.KindUQ33, 0.25
	if !adjacent {
		return append(slices.Clone(reqs), a, b, c, d)
	}
	partner := map[int]engine.Request{0: a, 2: b, 3: c, 4: d}
	var out []engine.Request
	for i, req := range reqs {
		out = append(out, req)
		if p, ok := partner[i]; ok {
			out = append(out, p)
		}
	}
	return out
}

// scrubbed zeroes the Explain fields that measure the run rather than the
// answer: wall times and the pool size.
func scrubbed(ex engine.Explain) engine.Explain {
	ex.Wall, ex.RefineWall, ex.Workers = 0, 0, 0
	return ex
}

func resultKey(res engine.Result) string {
	res.Explain = scrubbed(res.Explain)
	return fmt.Sprintf("%+v", res)
}

// TestParallelHubMatchesSerial drives the standing_churn world through a
// hub over engine.New(1) and one over engine.New(4), whose evaluations
// start after a random delay, and requires, after every batch, equal
// events (Explain included), equal answers, equal stats and equal verdict
// counts.
func TestParallelHubMatchesSerial(t *testing.T) {
	n, batches := 2000, 150
	if testing.Short() {
		n, batches = 400, 40
	}
	w, reqs := standingWorld(t, n, 24, batches)
	reqs = sharedKeyPairs(t, reqs, true)
	var (
		bes  [2]*engineBackend
		hubs [2]*Hub
		ids  [2][]int64
		rec  *recordingBackend // the serial hub's
	)
	ctx := context.Background()
	for h, workers := range []int{1, 4} {
		st, err := w.InitialStore()
		if err != nil {
			t.Fatal(err)
		}
		bes[h] = &engineBackend{store: st, eng: engine.New(workers)}
		if h == 0 {
			rec = &recordingBackend{engineBackend: bes[h]}
			hubs[h] = New(rec)
		} else {
			hubs[h] = New(&jitteredBackend{engineBackend: bes[h]})
		}
		for _, req := range reqs {
			id, _ := mustSubscribe(t, hubs[h], req)
			ids[h] = append(ids[h], id)
		}
	}
	if !slices.Equal(ids[0], ids[1]) {
		t.Fatalf("subscription IDs differ: %v vs %v", ids[0], ids[1])
	}
	chains := 0
	for b := 0; b < batches; b++ {
		rec.reqs = rec.reqs[:0]
		batch, err := w.StepSized(4, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var events [2][]Event
		for h, hub := range hubs {
			if _, events[h], err = hub.Ingest(ctx, batch); err != nil {
				t.Fatalf("batch %d hub %d: %v", b, h, err)
			}
		}
		if !sameEvents(events[0], events[1]) {
			t.Fatalf("batch %d: events differ:\n serial   %+v\n parallel %+v", b, events[0], events[1])
		}
		for _, id := range ids[0] {
			a, _ := hubs[0].Answer(id)
			p, _ := hubs[1].Answer(id)
			if resultKey(a) != resultKey(p) {
				t.Fatalf("batch %d sub %d: answers differ:\n serial   %s\n parallel %s", b, id, resultKey(a), resultKey(p))
			}
		}
		if a, p := hubs[0].Stats(), hubs[1].Stats(); a != p {
			t.Fatalf("batch %d: stats differ: serial %+v, parallel %+v", b, a, p)
		}
		if a, p := bes[0].verdictCounts(), bes[1].verdictCounts(); a != p {
			t.Fatalf("batch %d: verdicts differ: serial %v, parallel %v", b, a, p)
		}
		if chained(rec.reqs) {
			chains++
		}
	}
	s := hubs[0].Stats()
	if s.Patched == 0 || s.Rebuilt == 0 || chains == 0 {
		t.Fatalf("the run must patch, rebuild and evaluate two groups on one memo key in a batch to prove anything: %+v, %d", s, chains)
	}
	t.Logf("stats %+v, verdicts %v, batches with a memo-key chain: %d of %d", s, bes[0].verdictCounts(), chains, batches)
}

// jitteredBackend delays the start of every evaluation by a pseudo-random
// 0–2 ms, so the pool's tasks run in an order unrelated to the order they
// were claimed in.
type jitteredBackend struct {
	*engineBackend
	n atomic.Uint64
}

func (b *jitteredBackend) Revise(ctx context.Context, req engine.Request, last *Profile, applied []mod.Applied) (engine.Result, *Profile, bool, error) {
	x := b.n.Add(1) * 0x9E3779B97F4A7C15
	time.Sleep(time.Duration(x>>53%2000) * time.Microsecond)
	return b.engineBackend.Revise(ctx, req, last, applied)
}

// chained reports whether two of the evaluations reqs lists stand on one
// memo key.
func chained(reqs []engine.Request) bool {
	seen := make(map[engine.Key]bool)
	for _, req := range reqs {
		if seen[req.Key()] {
			return true
		}
		seen[req.Key()] = true
	}
	return false
}

// sameEvents compares two event slices with their provenance, run
// measurements aside.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Explain, y.Explain = scrubbed(x.Explain), scrubbed(y.Explain)
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// recordingBackend is a serial engine backend that notes, as every
// evaluation starts, which request it evaluates and, when ctx is set, how
// many context checks the batch had made by then.
type recordingBackend struct {
	*engineBackend
	ctx    *dyingCtx
	starts []int
	reqs   []engine.Request
}

func (b *recordingBackend) Revise(ctx context.Context, req engine.Request, last *Profile, applied []mod.Applied) (engine.Result, *Profile, bool, error) {
	if b.ctx != nil {
		b.starts = append(b.starts, b.ctx.calls)
	}
	b.reqs = append(b.reqs, req)
	return b.engineBackend.Revise(ctx, req, last, applied)
}

// dyingCtx reports context.Canceled from its after-th Err call on, and
// counts the calls.
type dyingCtx struct {
	context.Context
	after, calls int
}

func (c *dyingCtx) Err() error {
	if c.calls++; c.calls >= c.after {
		return context.Canceled
	}
	return nil
}

// TestIngestCancellationCheckpoints: a batch whose context dies between
// two group evaluations stops at the checkpoint that sees it. Its events
// are the serial hub's, cut before the first group it left unevaluated;
// every subscription from there on has lost its profile, none was diffed
// against a missing answer, and the next batch on a live context
// converges to the serial hub's answers. A context that dies inside an
// evaluation leaves the same, and so does one canceled as the k-th
// evaluation starts on a 4-worker pool, where the cut falls wherever the
// workers were.
func TestIngestCancellationCheckpoints(t *testing.T) {
	const n, cut = 400, 3 // batch `cut` is the one canceled
	w, reqs := standingWorld(t, n, 24, cut+2)
	reqs = sharedKeyPairs(t, reqs, false)
	script := make([][]mod.Update, cut+2)
	for i := range script {
		batch, err := w.StepSized(4, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		script[i] = batch
	}
	ctx := context.Background()
	// fresh returns a hub over wrap's backend after the batches before `cut`.
	fresh := func(workers int, wrap func(*engineBackend) Backend) *Hub {
		st, err := w.InitialStore()
		if err != nil {
			t.Fatal(err)
		}
		h := New(wrap(&engineBackend{store: st, eng: engine.New(workers)}))
		for _, req := range reqs {
			mustSubscribe(t, h, req)
		}
		for _, batch := range script[:cut] {
			if _, _, err := h.Ingest(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	answers := func(h *Hub) []string {
		out := make([]string, len(reqs))
		for i := range reqs {
			res, err := h.Answer(int64(i + 1))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = answerOf(res)
		}
		return out
	}
	rec := &recordingBackend{}
	ref := fresh(1, func(be *engineBackend) Backend { rec.engineBackend = be; return rec })
	rec.ctx, rec.reqs = &dyingCtx{Context: ctx, after: math.MaxInt}, nil
	_, refEvents, err := ref.Ingest(rec.ctx, script[cut])
	if err != nil {
		t.Fatal(err)
	}
	starts, evaluated := rec.starts, rec.reqs
	refAfterCut := answers(ref)
	if _, _, err := ref.Ingest(ctx, script[cut+1]); err != nil {
		t.Fatal(err)
	}
	refNext := answers(ref)
	if len(starts) < 4 {
		t.Fatalf("batch %d evaluates %d groups: too few to cut between", cut, len(starts))
	}
	// check holds a canceled batch's outcome to the serial hub's cut before
	// sub `first`, then converges it with the next batch.
	check := func(name string, h *Hub, events []Event, err error, first int64) {
		t.Helper()
		if err != context.Canceled {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		want := slices.DeleteFunc(slices.Clone(refEvents), func(ev Event) bool { return ev.SubID >= first })
		if !sameEvents(events, want) {
			t.Fatalf("%s: events\n %+v\nwant the serial hub's cut before sub %d\n %+v", name, events, first, want)
		}
		for _, ev := range events {
			if !ev.IsBool && ev.Pairs == nil && len(ev.OIDs) == 0 && len(ev.Removed) > 0 {
				t.Fatalf("%s: sub %d's event removes its whole answer: %+v", name, ev.SubID, ev)
			}
		}
		got := answers(h)
		for i := range reqs {
			id := int64(i + 1)
			if id >= first && h.subs[id].prof != nil {
				t.Fatalf("%s: sub %d kept a profile past the cut at %d", name, id, first)
			}
			if id < first && got[i] != refAfterCut[i] {
				t.Fatalf("%s: sub %d before the cut answers %s, serial %s", name, id, got[i], refAfterCut[i])
			}
		}
		if _, _, err := h.Ingest(ctx, script[cut+1]); err != nil {
			t.Fatal(err)
		}
		if got := answers(h); !slices.Equal(got, refNext) {
			t.Fatalf("%s: the next batch does not converge:\n got  %v\n want %v", name, got, refNext)
		}
	}
	outOfOrder := false
	for j, start := range starts {
		// The first subscription of a group the cut leaves unevaluated.
		first := int64(math.MaxInt64)
		for i, req := range reqs {
			if slices.ContainsFunc(evaluated[j:], func(e engine.Request) bool { return groupKey(e) == groupKey(req) }) {
				first = min(first, int64(i+1))
			}
		}
		if first < int64(slices.IndexFunc(reqs, func(r engine.Request) bool { return groupKey(r) == groupKey(evaluated[j]) })+1) {
			outOfOrder = true // a chain ran a later-ID group before this one
		}
		for _, inside := range []bool{false, true} {
			h := fresh(1, func(be *engineBackend) Backend { return be })
			dctx := &dyingCtx{Context: ctx, after: start}
			if inside {
				dctx.after++ // the evaluation's own first check
			}
			_, events, err := h.Ingest(dctx, script[cut])
			name := fmt.Sprintf("dying at check %d (group %d of %d, inside=%v)", dctx.after, j, len(starts), inside)
			if !inside && dctx.calls != dctx.after {
				t.Fatalf("%s: the hub checked its context %d times", name, dctx.calls)
			}
			check(name, h, events, err, first)
		}
	}
	if !outOfOrder {
		t.Fatal("no memo-key chain ran a group ahead of a lower-ID one: the cut never had to look past execution order")
	}
	for k := int64(1); k <= 6; k++ {
		cb := &cancelingBackend{}
		h := fresh(4, func(be *engineBackend) Backend { cb.engineBackend = be; return cb })
		cctx, cancel := context.WithCancel(ctx)
		cb.at, cb.cancel = k, cancel
		_, events, err := h.Ingest(cctx, script[cut])
		cb.cancel = nil
		cancel()
		// The cut is the first subscription without a fresh profile.
		first := int64(math.MaxInt64)
		for i := range reqs {
			if h.subs[int64(i+1)].prof == nil {
				first = int64(i + 1)
				break
			}
		}
		check(fmt.Sprintf("4 workers, canceled as evaluation %d starts", k), h, events, err, first)
	}
}

// cancelingBackend cancels the batch's context as its at-th evaluation
// starts.
type cancelingBackend struct {
	*engineBackend
	n      atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (b *cancelingBackend) Revise(ctx context.Context, req engine.Request, last *Profile, applied []mod.Applied) (engine.Result, *Profile, bool, error) {
	if b.cancel != nil && b.n.Add(1) == b.at {
		b.cancel()
	}
	return b.engineBackend.Revise(ctx, req, last, applied)
}
