package main

// The span recorder of the traced run. Spans are recorded from this
// package only, around the layers' public entry points: nothing inside
// internal/ knows it is being traced. A span carries its name
// ("layer.operation"), start and end, the span that caused it and the
// request it belongs to; spans stay in memory and are written out when
// the run ends.
//
// The tracer records only while it is switched on, which is during the
// measured rounds: set-up's warm-up and the scripted re-registrations run
// with it off, when begin returns -1 and end(-1) is a no-op.

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the causing span, -1 for a root
	Req     int    `json:"request"`
	// Repeats lists spans whose work this span performs again: the stage
	// replay runs envelope construction once on its own and once inside
	// queries.NewProcessorPrunedCtx, which has no seam between the two.
	// Self time deducts them like children.
	Repeats []int `json:"repeats,omitempty"`
	// Shard is the shard a cluster.shard_* span talked to, -1 elsewhere.
	Shard    int    `json:"shard"`
	Workload string `json:"workload"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

type tracer struct {
	on       atomic.Bool
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span

	// parent and req describe the one request in flight (the benchmark is
	// a single closed-loop client): decorators that run on other
	// goroutines — shard scatters, the in-process shard servers — hang
	// their spans under the innermost sequential span open right now.
	parent atomic.Int64
	req    atomic.Int64
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, epoch: time.Now()}
	t.parent.Store(-1)
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens a span under the current parent and returns its index, or
// -1 when the tracer is off.
func (t *tracer) begin(name string) int { return t.beginNote(name, -1) }

// beginNote is begin for a span that talks to one shard.
func (t *tracer) beginNote(name string, shard int) int {
	if !t.enabled() {
		return -1
	}
	layer, _, _ := strings.Cut(name, ".")
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, StartNS: now, EndNS: now,
		Parent: int(t.parent.Load()), Req: int(t.req.Load()), Shard: shard, Workload: t.workload,
	})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].EndNS = now
	d := t.spans[id].dur()
	t.mu.Unlock()
	return d
}

// scope opens a span and makes it the parent of everything begun until
// the returned func runs. Only the request's own goroutine may scope.
func (t *tracer) scope(name string) (id int, done func() time.Duration) {
	id = t.begin(name)
	if id < 0 {
		return id, func() time.Duration { return 0 }
	}
	prev := t.parent.Swap(int64(id))
	return id, func() time.Duration {
		t.parent.Store(prev)
		return t.end(id)
	}
}

// root opens a request: a fresh request id and a parentless scope.
func (t *tracer) root(name string) (id int, done func() time.Duration) {
	if !t.enabled() {
		return -1, func() time.Duration { return 0 }
	}
	t.req.Add(1)
	t.parent.Store(-1)
	id, done = t.scope(name)
	return id, done
}

func (t *tracer) markRepeats(id int, repeated ...int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Repeats = append(t.spans[id].Repeats, repeated...)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// ---- derived views -----------------------------------------------------

type interval struct{ lo, hi int64 }

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	at := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, at), min(iv.hi, hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// spanTree indexes a span list by parent.
type spanTree struct {
	spans    []span
	children [][]int
}

func buildTree(spans []span) *spanTree {
	tr := &spanTree{spans: spans, children: make([][]int, len(spans))}
	for i, s := range spans {
		if s.Parent >= 0 {
			tr.children[s.Parent] = append(tr.children[s.Parent], i)
		}
	}
	return tr
}

// self is a span's duration minus the part of it its children cover
// (parallel children count once) minus the spans it repeats.
func (tr *spanTree) self(i int) time.Duration {
	s := tr.spans[i]
	ivs := make([]interval, 0, len(tr.children[i]))
	for _, c := range tr.children[i] {
		ivs = append(ivs, interval{tr.spans[c].StartNS, tr.spans[c].EndNS})
	}
	d := s.EndNS - s.StartNS - covered(ivs, s.StartNS, s.EndNS)
	for _, r := range s.Repeats {
		d -= tr.spans[r].EndNS - tr.spans[r].StartNS
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// childCover is the union length of i's children whose name passes keep.
func (tr *spanTree) childCover(i int, keep func(name string) bool) time.Duration {
	s := tr.spans[i]
	var ivs []interval
	for _, c := range tr.children[i] {
		if keep(tr.spans[c].Name) {
			ivs = append(ivs, interval{tr.spans[c].StartNS, tr.spans[c].EndNS})
		}
	}
	return time.Duration(covered(ivs, s.StartNS, s.EndNS))
}

// blocking charges every instant of root's interval to the deepest span
// open at that instant and adds the charge to perLayer. Parallel siblings
// overlap in time but only one of them is charged per instant, so a
// layer's blocking time is what the caller actually waited for it.
func (tr *spanTree) blocking(root int, perLayer map[string]time.Duration) {
	type member struct {
		id, depth int
	}
	var members []member
	var walk func(i, depth int)
	walk = func(i, depth int) {
		members = append(members, member{i, depth})
		for _, c := range tr.children[i] {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	cuts := make([]int64, 0, 2*len(members))
	for _, m := range members {
		cuts = append(cuts, tr.spans[m.id].StartNS, tr.spans[m.id].EndNS)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for k := 1; k < len(cuts); k++ {
		lo, hi := cuts[k-1], cuts[k]
		if hi <= lo {
			continue
		}
		// Among equally deep open spans the latest started wins: a span
		// recorded on another goroutine (a shard server's journal append
		// inside the router's shard call) hangs off the same parent as the
		// call that contains it.
		best, bestDepth := -1, -1
		for _, m := range members {
			s := tr.spans[m.id]
			if s.StartNS > lo || s.EndNS < hi {
				continue
			}
			if m.depth > bestDepth || (m.depth == bestDepth && s.StartNS > tr.spans[best].StartNS) {
				best, bestDepth = m.id, m.depth
			}
		}
		if best >= 0 {
			perLayer[tr.spans[best].Layer] += time.Duration(hi - lo)
		}
	}
}
