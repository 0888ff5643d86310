// Package simtest is a deterministic simulation harness for the live
// ingestion + continuous-query stack: a seeded step-clock world whose
// fleet is generated once up front, then driven through scripted update
// batches — mid-plan route revisions anchored at each object's current
// position, plus a few objects held out and inserted mid-run. The world
// keeps a mirror store of the truth, so after every step a test can
// compare any live subscription's answer against a fresh engine run on a
// snapshot — the byte-identity gate of the continuous layer — and the
// benchmark harness can replay the identical script against different
// serving topologies.
//
// Everything is deterministic in Config.Seed: the same seed yields the
// same fleet, the same revision schedule, and the same update bytes, so
// single-engine and sharded runs can be compared event for event.
package simtest

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/textidx"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// Span is the fleet plan horizon in minutes (the workload default: every
// plan covers [0, Span]).
const Span = 60.0

// Config sizes a world. The zero value is unusable; see DefaultConfig.
type Config struct {
	Seed    int64
	N       int     // initial fleet size
	Held    int     // objects held out and inserted mid-run
	R       float64 // shared uncertainty radius
	Steps   int     // scripted steps
	PerStep int     // plan revisions per step
	Retire  int     // scripted retirements per step (0 = no churn)
	Protect int     // OID prefix the churn never retires (0 = the 9 Requests uses)
}

// DefaultConfig returns a small, fast world.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, N: 60, Held: 4, R: 0.5, Steps: 8, PerStep: 6}
}

// World is the step-clock simulation state.
type World struct {
	cfg     Config
	rng     *rand.Rand
	churn   *rand.Rand // retirement picks: a derived stream, so Retire>0 leaves the motion script untouched
	now     float64
	delta   float64
	step    int
	initial []*trajectory.Trajectory
	held    []*trajectory.Trajectory
	mirror  *mod.Store // the truth: every emitted update applied in order

	// Retirement churn state: OIDs the script retired, queued to re-enter
	// two steps later with the plan and tags they left with, and the
	// standing requests' query/target OIDs the script never retires (the
	// identity gates retire those deliberately, via Inject).
	pending   []reinsert
	protected map[int64]bool
}

// reinsert is a retired object waiting out its gap before re-entering.
type reinsert struct {
	oid   int64
	verts []trajectory.Vertex
	tags  []string
	due   int
}

// NewWorld builds a world: N+Held plans from the paper's workload
// generator, the first N active, the rest held for mid-run inserts.
func NewWorld(cfg Config) (*World, error) {
	if cfg.N < 10 || cfg.Steps < 1 || cfg.PerStep < 0 || cfg.R <= 0 {
		return nil, fmt.Errorf("simtest: bad config %+v", cfg)
	}
	trs, err := workload.Generate(workload.DefaultConfig(cfg.Seed), cfg.N+cfg.Held)
	if err != nil {
		return nil, err
	}
	mirror, err := mod.NewUniformStore(cfg.R)
	if err != nil {
		return nil, err
	}
	if err := mirror.InsertAll(trs[:cfg.N]); err != nil {
		return nil, err
	}
	for _, tr := range trs[:cfg.N] {
		if tags := initialTags(tr.OID); tags != nil {
			if err := mirror.SetTags(tr.OID, tags); err != nil {
				return nil, err
			}
		}
	}
	guard := cfg.Protect
	if guard < 9 { // at minimum the OIDs Requests() stands queries on
		guard = 9
	}
	protected := make(map[int64]bool)
	for i := 0; i < guard && i < cfg.N; i++ {
		protected[trs[i].OID] = true
	}
	return &World{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		churn:     rand.New(rand.NewSource(cfg.Seed ^ 0x4e71)),
		protected: protected,
		// The clock starts late enough that every subscription window
		// ending before the first revision exercises permanent skips, and
		// steps never push revisions past the horizon.
		now:     8,
		delta:   44 / float64(cfg.Steps),
		initial: trs[:cfg.N],
		held:    trs[cfg.N:],
		mirror:  mirror,
	}, nil
}

// initialTags is the deterministic starting tag assignment (by OID, so
// Requests can pick matching and non-matching targets up front).
func initialTags(oid int64) []string {
	var tags []string
	if oid%2 == 0 {
		tags = append(tags, "available")
	}
	if oid%3 == 0 {
		tags = append(tags, "ev")
	}
	return tags
}

// InitialStore returns a fresh store holding the initial fleet with its
// starting tags — trajectory values are shared (they are immutable),
// stores are not.
func (w *World) InitialStore() (*mod.Store, error) {
	st, err := mod.NewUniformStore(w.cfg.R)
	if err != nil {
		return nil, err
	}
	if err := st.InsertAll(w.initial); err != nil {
		return nil, err
	}
	for _, tr := range w.initial {
		if tags := initialTags(tr.OID); tags != nil {
			if err := st.SetTags(tr.OID, tags); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// SnapshotStore returns a fresh store with the world's current truth,
// tag sets included.
func (w *World) SnapshotStore() (*mod.Store, error) {
	st, err := mod.NewUniformStore(w.cfg.R)
	if err != nil {
		return nil, err
	}
	trs, tags, _ := w.mirror.AllWithTags()
	if err := st.InsertAll(trs); err != nil {
		return nil, err
	}
	for _, tr := range trs {
		if ts := tags[tr.OID]; len(ts) > 0 {
			if err := st.SetTags(tr.OID, ts); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// ProtectedOIDs returns the churn-immune OID prefix in generation order
// — the OIDs a harness can stand queries on without racing the scripted
// retirements.
func (w *World) ProtectedOIDs() []int64 {
	out := make([]int64, 0, len(w.protected))
	for _, tr := range w.initial {
		if w.protected[tr.OID] {
			out = append(out, tr.OID)
		}
		if len(out) == len(w.protected) {
			break
		}
	}
	return out
}

// Step advances the clock and returns the next scripted update batch,
// already applied to the world's mirror. Batches contain PerStep plan
// revisions anchored at each chosen object's current expected position
// (rewriting its route from the clock to the horizon) and, at two
// scripted points of the run, the insertion of a held-out object's full
// plan.
func (w *World) Step() ([]mod.Update, error) {
	return w.StepSized(w.cfg.PerStep, 2, w.cfg.Retire)
}

// tagsPtr copies tags into a never-nil slice. The distinction is invisible
// in process but not on the wire: JSON renders a pointer to a nil slice as
// null — "leave the tags alone" — where the script means [] — "clear them".
func tagsPtr(tags []string) *[]string {
	out := append([]string{}, tags...)
	return &out
}

// StepSized is Step with caller-chosen batch sizing: revisions plan
// rewrites, flips tag flips, and retires retirements this tick. It is
// the hook an open-loop load generator uses to push Poisson-drawn
// arrival counts through the same scripted world (the cityload harness
// draws the three counts from its arrival streams each tick).
func (w *World) StepSized(revisions, flips, retires int) ([]mod.Update, error) {
	w.step++
	w.now += w.delta
	var batch []mod.Update
	// Re-entries first: a retired object whose gap has elapsed comes back
	// under its old OID with the exact plan and tags it left with — the
	// same-OID second life that TTL-driven retirement produces.
	for len(w.pending) > 0 && w.pending[0].due <= w.step {
		p := w.pending[0]
		w.pending = w.pending[1:]
		batch = append(batch, mod.Update{OID: p.oid, Verts: p.verts, Tags: tagsPtr(p.tags)})
	}
	oids := w.mirror.OIDs()
	for i := 0; i < revisions && len(oids) > 0; i++ {
		oid := oids[w.rng.Intn(len(oids))]
		tr, err := w.mirror.Get(oid)
		if err != nil {
			return nil, err
		}
		pos := tr.At(w.now)
		// Route revision: anchored at the current position, one random
		// waypoint midway, ending at the horizon — the same speeds stay
		// plausible, and coverage of [0, Span] is preserved.
		mid := trajectory.Vertex{
			X: clamp(pos.X+(w.rng.Float64()-0.5)*16, 0, 40),
			Y: clamp(pos.Y+(w.rng.Float64()-0.5)*16, 0, 40),
			T: (w.now + Span) / 2,
		}
		end := trajectory.Vertex{
			X: clamp(mid.X+(w.rng.Float64()-0.5)*16, 0, 40),
			Y: clamp(mid.Y+(w.rng.Float64()-0.5)*16, 0, 40),
			T: Span,
		}
		batch = append(batch, mod.Update{OID: oid, Verts: []trajectory.Vertex{
			{X: pos.X, Y: pos.Y, T: w.now}, mid, end,
		}})
	}
	// Pure tag flips: a couple of objects per step change their tag set
	// with no motion change, driving the continuous layer's predicate
	// dirty rule (ChangedFrom = +Inf on the applied outcome) and, on the
	// snapshot side, the sub-MOD membership the filtered subscriptions
	// answer over.
	tagSets := [][]string{{}, {"available"}, {"ev"}, {"available", "ev"}}
	for i := 0; i < flips && len(oids) > 0; i++ {
		oid := oids[w.rng.Intn(len(oids))]
		batch = append(batch, mod.Update{OID: oid, Tags: tagsPtr(tagSets[w.rng.Intn(len(tagSets))])})
	}
	if len(w.held) > 0 && (w.step == w.cfg.Steps/3 || w.step == 2*w.cfg.Steps/3) {
		tr := w.held[0]
		w.held = w.held[1:]
		// Held-out inserts arrive already tagged: insert+tags in one update.
		tags := []string{"available"}
		batch = append(batch, mod.Update{OID: tr.OID, Verts: tr.Verts, Tags: &tags})
	}
	// Retirements close the batch (so same-batch revisions and flips on a
	// victim still hit a live object): Retire objects leave the fleet,
	// chosen from a derived stream that never touches the standing
	// requests' query/target OIDs, and queue for re-entry two steps out.
	if retires > 0 {
		victims := make(map[int64]bool)
		for i := 0; i < retires && len(oids) > 0; i++ {
			oid, ok := int64(0), false
			for tries := 0; tries < 64; tries++ {
				oid = oids[w.churn.Intn(len(oids))]
				if !w.protected[oid] && !victims[oid] {
					ok = true
					break
				}
			}
			if !ok {
				break
			}
			victims[oid] = true
			tr, err := w.mirror.Get(oid)
			if err != nil {
				return nil, err
			}
			w.pending = append(w.pending, reinsert{
				oid:   oid,
				verts: tr.Verts,
				tags:  append([]string(nil), w.mirror.Tags(oid)...),
				due:   w.step + 2,
			})
			batch = append(batch, mod.Update{OID: oid, Retire: true})
		}
	}
	if _, err := w.mirror.ApplyUpdates(batch); err != nil {
		return nil, err
	}
	return batch, nil
}

// Inject applies an out-of-script batch to the world's truth, so a
// caller can drive targeted churn — retiring a standing query's own OID,
// TTL sweeps — through the same mirror the identity gates compare
// against. The caller feeds the identical batch to the hub under test.
func (w *World) Inject(batch []mod.Update) error {
	_, err := w.mirror.ApplyUpdates(batch)
	return err
}

// Requests returns the standing subscription mix the simulation suite
// registers: whole-MOD retrievals at ranks 1 and 2, fraction variants,
// single-object predicates (including a fixed-time instant), the
// probability bounds (threshold queries single and whole-MOD, CertainNN
// whole-MOD and at an instant), one window that ends before the first revision —
// the permanently-clean subscription the dirty set must never touch —
// and a spatio-textual block whose tag predicates track the scripted
// flips (a short filtered window too: tags are atemporal, so a flip must
// dirty it even though its window precedes every motion revision).
func (w *World) Requests() []engine.Request {
	o := func(i int) int64 { return w.initial[i%len(w.initial)].OID }
	avail := &textidx.Predicate{All: []string{"available"}}
	anyOf := &textidx.Predicate{Any: []string{"available", "ev"}}
	notEV := &textidx.Predicate{All: []string{"available"}, Not: []string{"ev"}}
	return []engine.Request{
		{Kind: engine.KindUQ31, QueryOID: o(0), Tb: 0, Te: Span},
		{Kind: engine.KindUQ41, QueryOID: o(1), Tb: 5, Te: 55, K: 2},
		{Kind: engine.KindUQ32, QueryOID: o(2), Tb: 0, Te: Span},
		{Kind: engine.KindUQ33, QueryOID: o(3), Tb: 10, Te: 50, X: 0.3},
		{Kind: engine.KindUQ11, QueryOID: o(0), Tb: 0, Te: Span, OID: o(4)},
		{Kind: engine.KindUQ21, QueryOID: o(1), Tb: 0, Te: 40, OID: o(5), K: 2},
		{Kind: engine.KindUQ13, QueryOID: o(2), Tb: 0, Te: 30, OID: o(6), X: 0.2},
		{Kind: engine.KindNNAt, QueryOID: o(3), Tb: 0, Te: Span, OID: o(7), T: 20},
		{Kind: engine.KindUQ13, QueryOID: o(5), Tb: 0, Te: 20, OID: o(8), P: 0.4, X: 0.3},
		{Kind: engine.KindUQ31, QueryOID: o(0), Tb: 0, Te: Span, P: 1},
		{Kind: engine.KindNNAt, QueryOID: o(3), Tb: 0, Te: Span, OID: o(7), T: 20, P: 1},
		{Kind: engine.KindUQ31, QueryOID: o(4), Tb: 0, Te: 7}, // ends before any revision
		// Spatio-textual rows.
		{Kind: engine.KindUQ31, QueryOID: o(0), Tb: 0, Te: Span, Where: avail},
		{Kind: engine.KindUQ41, QueryOID: o(1), Tb: 5, Te: 55, K: 2, Where: anyOf},
		{Kind: engine.KindUQ32, QueryOID: o(2), Tb: 0, Te: Span, Where: notEV},
		{Kind: engine.KindUQ11, QueryOID: o(0), Tb: 0, Te: Span, OID: o(4), Where: avail},
		{Kind: engine.KindUQ13, QueryOID: o(5), Tb: 0, Te: 20, OID: o(8), P: 0.4, X: 0.3, Where: anyOf},
		// A whole-MOD threshold costs one P^NN series per UQ31 member (up
		// to ~0.3 s each): on the available sub-MOD this window has two.
		{Kind: engine.KindUQ33, QueryOID: o(8), Tb: 5, Te: 15, P: 0.4, X: 0.3, Where: avail},
		{Kind: engine.KindUQ31, QueryOID: o(4), Tb: 0, Te: 7, Where: avail}, // flips still dirty it
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
