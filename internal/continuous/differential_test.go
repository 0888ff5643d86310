package continuous

// The gate of the maintained answer: two hubs over twin stores fed the
// same script — NewEngineHub, which continues a standing question's last
// evaluation wherever the one patch rule allows, and a hub over the same
// backend with its Revise hidden, which derives every dirty evaluation
// from scratch. Whatever the script, every subscription must see the same
// event stream from both, and that stream must be a faithful trace: Seq
// strictly increasing, initial answer ⊕ diffs = Answer() = a fresh
// engine.Do after every batch. A run in which the first hub never patches
// (or never rebuilds) proves nothing, so the scripts assert both happened.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/simtest"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// scratchOnly hides a backend's Revise: a hub over it never patches.
type scratchOnly struct{ Backend }

// twin drives the two hubs in lockstep and checks the trace invariants.
type twin struct {
	t      *testing.T
	stores [2]*mod.Store
	hubs   [2]*Hub // [0] patches, [1] never does
	be     *engineBackend
	reqs   []engine.Request
	ids    [2][]int64
	replay []engine.Result // per subscription: initial answer ⊕ diffs
	seq    []uint64
	batch  int
	// freshEvery thins the fresh engine.Do comparison (1 = every batch);
	// the hub-vs-hub comparison always runs.
	freshEvery int
}

func newTwin(t *testing.T, build func() *mod.Store, reqs []engine.Request) *twin {
	t.Helper()
	tw := &twin{t: t, freshEvery: 1}
	tw.stores = [2]*mod.Store{build(), build()}
	tw.be = &engineBackend{store: tw.stores[0], eng: engine.New(2)}
	tw.hubs[0] = New(tw.be)
	tw.hubs[1] = New(scratchOnly{&engineBackend{store: tw.stores[1], eng: engine.New(2)}})
	for _, req := range reqs {
		tw.subscribe(req)
	}
	return tw
}

func (tw *twin) subscribe(req engine.Request) int {
	tw.t.Helper()
	var first engine.Result
	for h, hub := range tw.hubs {
		id, res, err := hub.Subscribe(context.Background(), req)
		if err != nil {
			tw.t.Fatalf("hub %d: subscribe %+v: %v", h, req, err)
		}
		tw.ids[h] = append(tw.ids[h], id)
		if h == 0 {
			first = res
		} else if answerOf(first) != answerOf(res) {
			tw.t.Fatalf("initial answers differ for %+v:\n patched %s\n scratch %s", req, answerOf(first), answerOf(res))
		}
	}
	tw.reqs = append(tw.reqs, req)
	tw.replay = append(tw.replay, first)
	tw.seq = append(tw.seq, 0)
	return len(tw.reqs) - 1
}

// answerOf renders a result's answer-bearing fields; Explain (wall times,
// memo hits) legitimately differs between the hubs.
func answerOf(res engine.Result) string {
	switch {
	case res.Err != nil:
		return fmt.Sprintf("unknown_oid=%v", errors.Is(res.Err, engine.ErrUnknownOID))
	case res.IsBool:
		return fmt.Sprintf("bool=%v", res.Bool)
	case res.Pairs != nil:
		keys := slices.Sorted(maps.Keys(res.Pairs))
		s := "pairs"
		for _, k := range keys {
			s += fmt.Sprintf(" %d:%v", k, res.Pairs[k])
		}
		return s
	}
	return fmt.Sprintf("oids=%v", res.OIDs)
}

func eventKey(ev Event) string {
	ev.SubID, ev.Explain = 0, engine.Explain{}
	return fmt.Sprintf("%+v", ev)
}

func (tw *twin) ingest(batch []mod.Update) {
	tw.t.Helper()
	tw.batch++
	ctx := context.Background()
	var events [2]map[int64][]Event
	for h, hub := range tw.hubs {
		_, evs, err := hub.Ingest(ctx, batch)
		if err != nil {
			tw.t.Fatalf("batch %d hub %d: %v", tw.batch, h, err)
		}
		events[h] = make(map[int64][]Event)
		for _, ev := range evs {
			events[h][ev.SubID] = append(events[h][ev.SubID], ev)
		}
	}
	fresh := engine.New(1)
	for i, req := range tw.reqs {
		a, b := events[0][tw.ids[0][i]], events[1][tw.ids[1][i]]
		if len(a) != len(b) || len(a) > 1 {
			tw.t.Fatalf("batch %d sub %d (%s): %d events patched, %d scratch", tw.batch, i, req.Kind, len(a), len(b))
		}
		for j, ev := range a {
			if eventKey(ev) != eventKey(b[j]) {
				tw.t.Fatalf("batch %d sub %d (%s): events differ:\n patched %s\n scratch %s", tw.batch, i, req.Kind, eventKey(ev), eventKey(b[j]))
			}
			if ev.Seq != tw.seq[i]+1 {
				tw.t.Fatalf("batch %d sub %d: seq %d after %d", tw.batch, i, ev.Seq, tw.seq[i])
			}
			tw.seq[i] = ev.Seq
			tw.replay[i] = applyDiff(tw.t, tw.replay[i], ev)
		}
		var live [2]engine.Result
		for h, hub := range tw.hubs {
			res, err := hub.Answer(tw.ids[h][i])
			if err != nil {
				tw.t.Fatal(err)
			}
			live[h] = res
		}
		if answerOf(live[0]) != answerOf(live[1]) {
			tw.t.Fatalf("batch %d sub %d (%s): answers differ:\n patched %s\n scratch %s", tw.batch, i, req.Kind, answerOf(live[0]), answerOf(live[1]))
		}
		if live[0].Err != nil {
			// A retired query or target: the standing answer is the error
			// (no event says so), and the hub diffs the revival against
			// the empty answer — so does the consumer.
			tw.replay[i] = engine.Result{Kind: req.Kind}
		} else if answerOf(tw.replay[i]) != answerOf(live[0]) {
			tw.t.Fatalf("batch %d sub %d (%s): initial ⊕ diffs = %s, Answer() = %s", tw.batch, i, req.Kind, answerOf(tw.replay[i]), answerOf(live[0]))
		}
		every := tw.freshEvery
		if req.P > 0 && req.P < 1 {
			every *= 4 // a threshold evaluation integrates probabilities: ~100 ms
		}
		if tw.batch%every != 0 {
			continue
		}
		want, err := fresh.Do(ctx, tw.stores[0], req)
		if err != nil && !(errors.Is(err, engine.ErrUnknownOID) || errors.Is(err, mod.ErrNotFound)) {
			tw.t.Fatalf("batch %d sub %d: fresh: %v", tw.batch, i, err)
		}
		if err != nil {
			want.Err = fmt.Errorf("%w: %v", engine.ErrUnknownOID, err)
		}
		if answerOf(want) != answerOf(live[0]) {
			tw.t.Fatalf("batch %d sub %d (%s): stale:\n hub   %s\n fresh %s", tw.batch, i, req.Kind, answerOf(live[0]), answerOf(want))
		}
	}
}

// applyDiff patches a replayed answer with one event, the way a stream
// consumer would, and cross-checks the event's own full answer.
func applyDiff(t *testing.T, prev engine.Result, ev Event) engine.Result {
	t.Helper()
	next := engine.Result{Kind: ev.Kind}
	switch {
	case ev.IsBool:
		next.IsBool, next.Bool = true, ev.Bool
	case ev.Pairs != nil:
		next.Pairs = ev.Pairs
	default:
		set := make(map[int64]bool, len(prev.OIDs))
		for _, id := range prev.OIDs {
			set[id] = true
		}
		for _, id := range ev.Removed {
			if !set[id] {
				t.Fatalf("event removes %d, which the consumer does not hold: %+v", id, ev)
			}
			delete(set, id)
		}
		for _, id := range ev.Added {
			if set[id] {
				t.Fatalf("event adds %d, which the consumer already holds: %+v", id, ev)
			}
			set[id] = true
		}
		next.OIDs = slices.Sorted(maps.Keys(set))
		if len(next.OIDs) == 0 {
			next.OIDs = nil
		}
		if !slices.Equal(next.OIDs, ev.OIDs) {
			t.Fatalf("diffs give %v, the event's full answer is %v", next.OIDs, ev.OIDs)
		}
	}
	return next
}

// mustHaveDoneBoth asserts the patched hub did both kinds of evaluation and
// accounted for every one of them.
func (tw *twin) mustHaveDoneBoth() Stats {
	tw.t.Helper()
	s, scratch := tw.hubs[0].Stats(), tw.hubs[1].Stats()
	if s.Patched == 0 || s.Rebuilt == 0 {
		tw.t.Fatalf("the run must both patch and rebuild to prove anything: %+v", s)
	}
	if s.Evals != s.Patched+s.Rebuilt {
		tw.t.Fatalf("Evals != Patched + Rebuilt: %+v", s)
	}
	if scratch.Patched != 0 || scratch.Evals != scratch.Rebuilt {
		tw.t.Fatalf("the scratch hub patched: %+v", scratch)
	}
	var sum uint64
	verdicts := tw.be.verdictCounts()
	for _, n := range verdicts {
		sum += n
	}
	if sum != s.Evals || verdicts[prune.Patched] != s.Patched {
		tw.t.Fatalf("verdicts %v do not account for %+v", verdicts, s)
	}
	return s
}

// verdictsSince returns the per-verdict counts accumulated since before.
func (tw *twin) verdictsSince(before [prune.Verdicts]uint64) (d [prune.Verdicts]uint64) {
	now := tw.be.verdictCounts()
	for i := range d {
		d[i] = now[i] - before[i]
	}
	return d
}

func worldStore(t *testing.T, w *simtest.World) func() *mod.Store {
	return func() *mod.Store {
		st, err := w.InitialStore()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
}

// TestDifferentialSimMatrices runs the scripts of the simtest churn and
// crash matrices (their seeds, their retirement rates, the churn matrix's
// retire-and-revive of a standing query's own object) through the twin
// hubs.
func TestDifferentialSimMatrices(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   int64
		retire int
	}{{"churn", 3011, 2}, {"crash", 2009, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := simtest.DefaultConfig(tc.seed)
			cfg.Retire = tc.retire
			w, err := simtest.NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A threshold evaluation integrates probabilities (~0.3 s per
			// object, and three engines run every one): only the churn
			// script keeps them — the unfiltered single-object one and the
			// whole-MOD one, which is enough to put the bound on a
			// successor.
			reqs := slices.DeleteFunc(w.Requests(), func(r engine.Request) bool {
				return r.P > 0 && r.P < 1 && (tc.name != "churn" || (r.Where != nil && !r.Kind.IsWholeMODFilter()))
			})
			tw := newTwin(t, worldStore(t, w), reqs)
			// The victim is a target (UQ11 rows) and a query (the short
			// UQ31 rows) at once.
			victim := reqs[4].OID
			truth, err := w.SnapshotStore()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := truth.Get(victim)
			if err != nil {
				t.Fatal(err)
			}
			tags := slices.Clone(truth.Tags(victim))
			for step := 0; step < cfg.Steps; step++ {
				batch, err := w.Step()
				if err != nil {
					t.Fatal(err)
				}
				tw.ingest(batch)
				var inject []mod.Update
				switch step {
				case 2:
					inject = []mod.Update{{OID: victim, Retire: true}}
				case 4:
					inject = []mod.Update{{OID: victim, Verts: plan.Verts, Tags: &tags}}
				}
				if inject != nil {
					if err := w.Inject(inject); err != nil {
						t.Fatal(err)
					}
					tw.ingest(inject)
				}
			}
			tw.mustHaveDoneBoth()
		})
	}
}

// TestDifferentialTagFlipScript replays TestTagFlipDirtyRule's script.
func TestDifferentialTagFlipScript(t *testing.T) {
	build := func() *mod.Store {
		st := liveScene(t)
		for _, oid := range []int64{3, 4} {
			if err := st.SetTags(oid, []string{"ev"}); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	ev := &textidx.Predicate{All: []string{"ev"}}
	tw := newTwin(t, build, []engine.Request{
		{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10, Where: ev},
		{Kind: engine.KindUQ11, QueryOID: 1, Tb: 0, Te: 10, OID: 2, Where: ev},
		{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10},
	})
	for _, u := range []mod.Update{
		retag(2, "ev"),
		retag(3),
		revision(5, [3]float64{0, 200, 0}, [3]float64{10, 200, 10}),
		retag(5, "ev"),
		retag(2, "ev", "wheelchair"),
		retag(2, "wheelchair"),
		// Beyond the original script: a stranger joins the EV fleet inside
		// the zone but above the envelope — the join that is patched.
		revision(6, [3]float64{0, 101, 0}, [3]float64{10, 101, 10}),
		retag(6, "ev"),
	} {
		tw.ingest([]mod.Update{u})
	}
	tw.mustHaveDoneBoth()
}

// TestPatchRuleNamedCases pins, one by one, the cases the patch rule names
// — each must be evaluated the way the rule says, and answer like the
// from-scratch hub either way.
func TestPatchRuleNamedCases(t *testing.T) {
	// Query 1 along y = 0; 2 shadows it at y = 1 (Level 1), 3 at y = 2
	// (Level 2), 4 and 5 at y = 2.6 and 2.9: inside the 4r = 2 zone of
	// Level 1, defining nothing. 6 and 7 are far.
	heights := map[int64]float64{1: 0, 2: 1, 3: 2, 4: 2.6, 5: 2.9, 6: 60, 7: 90}
	build := func() *mod.Store {
		st, err := mod.NewUniformStore(0.5)
		if err != nil {
			t.Fatal(err)
		}
		for oid, y := range heights {
			if err := st.Insert(denseLine(t, oid, y)); err != nil {
				t.Fatal(err)
			}
		}
		for _, oid := range []int64{2, 3, 4, 6} {
			if err := st.SetTags(oid, []string{"ev"}); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	ev := &textidx.Predicate{All: []string{"ev"}}
	level := func(oid int64, y float64) mod.Update { // a whole new plan at height y
		return revision(oid, [3]float64{1, y, 1}, [3]float64{5, y, 5}, [3]float64{10, y, 10})
	}
	tw := newTwin(t, build, []engine.Request{
		{Kind: engine.KindUQ31, QueryOID: 1, Tb: 2, Te: 10},
		{Kind: engine.KindUQ41, QueryOID: 1, Tb: 2, Te: 10, K: 2},
		{Kind: engine.KindUQ31, QueryOID: 1, Tb: 2, Te: 10, Where: ev},
		{Kind: engine.KindUQ11, QueryOID: 1, Tb: 2, Te: 10, OID: 4},
	})
	const (
		u31 = iota
		u41
		f31
		u11
	)
	step := func(name string, batch []mod.Update, want map[prune.Verdict]uint64) {
		t.Helper()
		before := tw.be.verdictCounts()
		tw.ingest(batch)
		got := tw.verdictsSince(before)
		for v := prune.Verdict(0); v < prune.Verdicts; v++ {
			if got[v] != want[v] {
				t.Fatalf("%s: verdicts %v (by %v), want %v", name, got, verdictNames(), want)
			}
		}
	}
	// A zone member shifts a little: nothing it touches defines anything,
	// all four questions are patched.
	step("survivor revised", []mod.Update{level(5, 2.8)}, map[prune.Verdict]uint64{prune.Patched: 4})
	// A zero-length revision: the plan is restated vertex for vertex from
	// t = 4 on. Object 4 is a survivor everywhere, a definer nowhere.
	step("zero-length revision", []mod.Update{revision(4, [3]float64{4, 2.6, 4}, [3]float64{5, 2.6, 5}, [3]float64{10, 2.6, 10})},
		map[prune.Verdict]uint64{prune.Patched: 4})
	// The batch revises the Level-1 definer: every question that holds
	// object 2 in a level rebuilds (all four; in the EV sub-MOD too).
	step("definer revised", []mod.Update{level(2, 1.1)}, map[prune.Verdict]uint64{prune.DefinerChanged: 4})
	// A stranger enters below the envelope: 7 dives to y = 0.5.
	// (It is no EV: the filtered question sees no newcomer and is patched.)
	step("stranger below the envelope", []mod.Update{level(7, 0.5)}, map[prune.Verdict]uint64{prune.BelowLevel: 3, prune.Patched: 1})
	if got := answerOf(tw.replay[u31]); got != "oids=[2 3 7]" {
		t.Fatalf("after the dive: %s", got)
	}
	// ... and leaves again: now it defines Level 1.
	step("definer leaves", []mod.Update{level(7, 90)}, map[prune.Verdict]uint64{prune.DefinerChanged: 3, prune.Patched: 1})
	// The rank-2 question's Level-2 definer retires. Object 3 defines
	// Level 2 only where rank 2 is maintained; the rank-1 questions hold it
	// as a plain zone member and are patched — and lose it from their
	// answers.
	step("level-2 definer retires", []mod.Update{{OID: 3, Retire: true}},
		map[prune.Verdict]uint64{prune.DefinerChanged: 1, prune.Patched: 3})
	if got := answerOf(tw.replay[u31]); got != "oids=[2 4 5]" {
		t.Fatalf("after the retirement: %s", got)
	}
	if got := answerOf(tw.replay[u41]); got != "oids=[2 4 5]" {
		t.Fatalf("rank 2 after the retirement: %s", got)
	}
	// The filtered question's definer flips out of the predicate; the
	// unfiltered ones do not notice a pure retag.
	step("definer flips out", []mod.Update{retag(2)}, map[prune.Verdict]uint64{prune.DefinerChanged: 1})
	if got := answerOf(tw.replay[f31]); got != "oids=[4]" {
		t.Fatalf("EV fleet after the flip: %s", got)
	}
	// The query object itself moves.
	step("query moved", []mod.Update{level(1, 0.2)}, map[prune.Verdict]uint64{prune.QueryMoved: 4})
	// An object revised to end before the window does: the from-scratch
	// path must be the one to report it. (The hubs keep their last good
	// answers; the twin only checks they agree.)
	_ = u11
	tw.mustHaveDoneBoth()
}

func verdictNames() []string {
	out := make([]string, prune.Verdicts)
	for v := range out {
		out[v] = prune.Verdict(v).String()
	}
	return out
}

// standingShape mirrors the benchmark's standing_churn questions: a
// 10-minute window ahead of the clock on a protected query object — UQ31,
// UQ33, UQ11 and a rank-2 UQ41 in rotation, three in eight tag-filtered.
func standingShape(rng *rand.Rand, protected []int64, i int) engine.Request {
	pick := func() int64 { return protected[rng.Intn(len(protected))] }
	tb := 40 + 0.25*float64(rng.Intn(41))
	req := engine.Request{QueryOID: pick(), Tb: tb, Te: tb + 10}
	switch i % 4 {
	case 0:
		req.Kind = engine.KindUQ31
	case 1:
		req.Kind, req.X = engine.KindUQ33, 0.25
	case 2:
		req.Kind, req.OID = engine.KindUQ11, pick()
		for req.OID == req.QueryOID {
			req.OID = pick()
		}
	default:
		req.Kind, req.K = engine.KindUQ41, 2
	}
	if i%4 == 3 || i%8 == 4 {
		req.Where = &textidx.Predicate{All: []string{"available"}}
	}
	return req
}

// standingWorld is the standing_churn world: N objects, 4 revisions, a tag
// flip and a retirement (plus the re-entries of earlier retirements) per
// batch, `questions` standing questions.
func standingWorld(tb testing.TB, n, questions, batches int) (*simtest.World, []engine.Request) {
	w, err := simtest.NewWorld(simtest.Config{
		Seed: 2009, N: n, Held: 4, R: 0.5, Steps: batches, PerStep: 4, Retire: 1, Protect: n / 4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	reqs := make([]engine.Request, questions)
	for i := range reqs {
		reqs[i] = standingShape(rng, w.ProtectedOIDs(), i)
	}
	return w, reqs
}

// TestDifferentialStandingChurn is the benchmark-shaped world: 2 000
// objects, 24 questions, 150 batches of ~7 updates.
func TestDifferentialStandingChurn(t *testing.T) {
	n, batches := 2000, 150
	if testing.Short() {
		n, batches = 400, 40
	}
	w, reqs := standingWorld(t, n, 24, batches)
	tw := newTwin(t, worldStore(t, w), reqs)
	// The scratch hub is compared every batch; a fresh engine (a third
	// from-scratch evaluation of all 24 questions) every tenth.
	tw.freshEvery = 10
	for b := 0; b < batches; b++ {
		batch, err := w.StepSized(4, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		tw.ingest(batch)
	}
	s := tw.mustHaveDoneBoth()
	if 2*s.Patched < s.Evals {
		t.Fatalf("patched %d of %d evaluations: the rule should carry most of this world", s.Patched, s.Evals)
	}
	t.Logf("stats %+v, verdicts %v by %v", s, tw.be.verdictCounts(), verdictNames())
}

// TestEnumeratedAnswersFollowMembership: a UQ33/UQ43 whose fraction
// requirement rounds to zero answers with every candidate, so an insert or
// a retirement far outside any zone changes it — the dirty test must not
// prove such a batch clean, and the patch path must count the newcomer.
func TestEnumeratedAnswersFollowMembership(t *testing.T) {
	build := func() *mod.Store {
		st := liveScene(t)
		for i := int64(0); i < 50; i++ {
			far, err := trajectory.New(100+i, []trajectory.Vertex{{X: 0, Y: 1000 + 10*float64(i), T: 0}, {X: 10, Y: 1000 + 10*float64(i), T: 10}})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Insert(far); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				if err := st.SetTags(100+i, []string{"ev"}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return st
	}
	ev := &textidx.Predicate{All: []string{"ev"}}
	tw := newTwin(t, build, []engine.Request{
		{Kind: engine.KindUQ33, QueryOID: 1, Tb: 2, Te: 8, X: 0},
		{Kind: engine.KindUQ43, QueryOID: 1, Tb: 2, Te: 8, X: 0, K: 2},
		{Kind: engine.KindUQ33, QueryOID: 1, Tb: 2, Te: 8, X: 0, Where: ev},
		{Kind: engine.KindUQ43, QueryOID: 1, Tb: 2, Te: 8, X: 0, K: 2, Where: ev},
	})
	count := func(i int) int { return len(tw.replay[i].OIDs) }
	if count(0) != 53 || count(2) != 25 {
		t.Fatalf("initial answers hold %d and %d OIDs, want 53 and 25", count(0), count(2))
	}
	tags := []string{"ev"}
	far := func(oid int64) []trajectory.Vertex {
		return []trajectory.Vertex{{X: 0, Y: 5000, T: 0}, {X: 10, Y: 5000, T: 10}}
	}
	tw.ingest([]mod.Update{{OID: 900, Verts: far(900)}}) // untagged insert
	if count(0) != 54 || count(1) != 54 || count(2) != 25 || count(3) != 25 {
		t.Fatalf("after an untagged far insert: %d %d %d %d", count(0), count(1), count(2), count(3))
	}
	tw.ingest([]mod.Update{{OID: 901, Verts: far(901), Tags: &tags}}) // tagged insert
	if count(0) != 55 || count(2) != 26 || count(3) != 26 {
		t.Fatalf("after a tagged far insert: %d %d %d", count(0), count(2), count(3))
	}
	tw.ingest([]mod.Update{{OID: 101, Retire: true}}) // untagged retirement
	if count(0) != 54 || count(1) != 54 || count(2) != 26 {
		t.Fatalf("after an untagged far retirement: %d %d %d", count(0), count(1), count(2))
	}
	tw.ingest([]mod.Update{{OID: 100, Retire: true}}) // tagged retirement
	if count(0) != 53 || count(2) != 25 || count(3) != 25 {
		t.Fatalf("after a tagged far retirement: %d %d %d", count(0), count(2), count(3))
	}
	tw.ingest([]mod.Update{retag(103, "ev")}) // a far object flips into the predicate
	if count(0) != 53 || count(2) != 26 || count(3) != 26 {
		t.Fatalf("after a far flip: %d %d %d", count(0), count(2), count(3))
	}
	if s := tw.hubs[0].Stats(); s.Patched == 0 {
		t.Fatalf("far membership changes leave every level standing; none was patched: %+v", s)
	}
	if !reflect.DeepEqual(tw.replay[0].OIDs[:3], []int64{2, 3, 4}) {
		t.Fatalf("the enumeration lost its head: %v", tw.replay[0].OIDs[:3])
	}
}
