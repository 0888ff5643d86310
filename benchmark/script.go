package main

// Script preparation: everything random or generator-driven happens here,
// before any clock starts. A script is a pure function of (workload spec,
// seed): the update batches come from simtest.World.StepSized, the
// one-shot queries from a derived RNG stream, the oracle's expected
// answers from a serial full-scan engine on the world's truth at that
// point of the script, and (for the wire workload) the JSON request
// bodies. The measured loop only replays what is materialised here.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/simtest"
	"repro/internal/textidx"
)

// protectedOIDs is the churn-immune OID prefix standing questions and the
// hot/churn one-shot queries pick their query and target objects from, so
// a scripted retirement never turns a scripted request into an error. It
// is wide so that a run averages over many query trajectories: what a
// query costs depends on where its object travels, and a handful of them
// would make every latency a property of the seed.
const protectedOIDs = 512

type queryOp struct {
	Req    engine.Request
	Body   []byte // pre-encoded POST /v1/query body (wire workload only)
	Expect string // the oracle's canonical answer key; "" off the oracle points
}

type batchOp struct {
	Updates []mod.Update
	Body    []byte // pre-encoded POST /v1/ingest body (wire workload only)
}

// standingCheck pins one subscriber's standing answer after a round.
type standingCheck struct {
	Sub    int // index into script.Subs
	Expect string
}

// resubscribe moves the subscribers of one standing question to a fresh
// one before the round's batch (untimed, like set-up's registrations).
type resubscribe struct {
	Subs []int // indices into script.Subs
	Req  engine.Request
}

type round struct {
	Resub    *resubscribe
	Batches  []batchOp
	Queries  []queryOp
	Standing []standingCheck
}

type script struct {
	Spec     workloadSpec
	Cfg      simtest.Config
	Subs     []engine.Request
	Warmup   []round
	Measured []round
	// OraclePoints counts the expected answers embedded in Measured.
	OraclePoints int
}

// scaledRounds turns --seconds into a round count: proportional to the
// reference run, never below what keeps every round kind represented.
func scaledRounds(spec workloadSpec, seconds int) int {
	n := (spec.Rounds*seconds + referenceSeconds/2) / referenceSeconds
	if n < 4 {
		n = 4
	}
	return n
}

// prepare materialises the warm-up rounds and the first `play` measured
// rounds of the workload's script. The world's step clock is always sized
// for the whole script (spec.Rounds), so a shorter play is a prefix of the
// full script, not a different one.
func prepare(spec workloadSpec, seed int64, play int) (*script, error) {
	total := spec.Warmup + play
	cfg := simtest.Config{
		Seed: seed, N: spec.N, Held: 4, R: 0.5,
		Steps:   (spec.Warmup + spec.Rounds) * spec.Batches,
		PerStep: spec.Revisions, Retire: spec.Retires,
		Protect: protectedOIDs,
	}
	w, err := simtest.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	sc := &script{Spec: spec, Cfg: cfg}
	// The query stream is its own generator, seeded apart from the
	// world's, so changing the query mix never perturbs the update script.
	gen := &queryGen{
		rng:       rand.New(rand.NewSource(seed*7919 + 17)),
		n:         spec.N,
		protected: w.ProtectedOIDs(),
		seen:      make(map[[2]float64]bool),
	}
	// standing[i] is what the i-th subscriber stands on right now and
	// shapeOf[i] which of the spec.Shapes questions that is; sc.Subs keeps
	// the initial registrations.
	var standing []engine.Request
	var shapeOf []int
	if spec.Subs > 0 {
		standing, shapeOf = gen.standingRequests(spec.Subs, spec.Shapes)
		sc.Subs = append([]engine.Request(nil), standing...)
	}
	oracle := engine.NewWith(engine.Options{Workers: 1, FullScan: true})
	stride := play / 12
	if stride < 1 {
		stride = 1
	}
	points := 0
	for r := 0; r < total; r++ {
		var rd round
		if spec.Subs > 0 && r > 0 {
			// One standing question retires per round and a fresh one
			// takes its subscribers: over a run the hub's work averages
			// over a hundred-odd questions instead of the first
			// spec.Shapes.
			rs := &resubscribe{Req: gen.standingShape(spec.Shapes + r)}
			for i := range standing {
				if shapeOf[i] == r%spec.Shapes {
					rs.Subs = append(rs.Subs, i)
					standing[i] = rs.Req
				}
			}
			rd.Resub = rs
		}
		for b := 0; b < spec.Batches; b++ {
			ups, err := w.StepSized(spec.Revisions, spec.Flips, spec.Retires)
			if err != nil {
				return nil, fmt.Errorf("script step %d: %w", r, err)
			}
			op := batchOp{Updates: ups}
			if spec.Wire {
				if op.Body, err = ingestBody(ups); err != nil {
					return nil, err
				}
			}
			rd.Batches = append(rd.Batches, op)
		}
		for _, req := range gen.burst(spec.Burst) {
			op := queryOp{Req: req}
			if spec.Wire {
				if op.Body, err = json.Marshal(req); err != nil {
					return nil, err
				}
			}
			rd.Queries = append(rd.Queries, op)
		}
		m := r - spec.Warmup
		if m >= 0 && m%stride == stride-1 {
			snap, err := w.SnapshotStore()
			if err != nil {
				return nil, err
			}
			expect := func(req engine.Request) (string, error) {
				res, err := oracle.Do(context.Background(), snap, req)
				if err != nil {
					return "", fmt.Errorf("oracle %s on round %d: %w", req.Kind, r, err)
				}
				return answerKey(res), nil
			}
			for _, qi := range oracleQueries(spec, len(rd.Queries), points) {
				if rd.Queries[qi].Expect, err = expect(rd.Queries[qi].Req); err != nil {
					return nil, err
				}
				sc.OraclePoints++
			}
			for _, si := range oracleSubs(len(standing), points) {
				key, err := expect(standing[si])
				if err != nil {
					return nil, err
				}
				rd.Standing = append(rd.Standing, standingCheck{Sub: si, Expect: key})
				sc.OraclePoints++
			}
			points++
		}
		if r < spec.Warmup {
			sc.Warmup = append(sc.Warmup, rd)
		} else {
			sc.Measured = append(sc.Measured, rd)
		}
	}
	return sc, nil
}

// oracleQueries picks which of a round's n queries the oracle pins at the
// point-th oracle round. A full scan costs O(N·m), so at full scale the
// cold bursts pin one query (rotating through the four kinds) and the hot
// burst pins the build request plus one of each family, which share the
// oracle engine's single preprocessing; toy fleets pin everything.
func oracleQueries(spec workloadSpec, n, point int) []int {
	if n == 0 {
		return nil
	}
	if spec.N <= 1000 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	if spec.Burst == burstHot {
		return []int{0, 3, 6, 13}
	}
	return []int{point % n}
}

// oracleSubs picks two standing subscribers per oracle round, walking the
// distinct shapes so that a run covers every standing question.
func oracleSubs(subs, point int) []int {
	if subs == 0 {
		return nil
	}
	return []int{(2 * point) % subs, (2*point + 1) % subs}
}

// queryGen draws the one-shot queries.
type queryGen struct {
	rng       *rand.Rand
	n         int
	protected []int64
	seen      map[[2]float64]bool
}

// fresh returns a (query OID, window start) pair never returned before,
// with the start on a quarter-minute grid so that width minutes fit
// before the plan horizon.
func (g *queryGen) fresh(anyOID bool, width float64) (int64, float64) {
	for {
		var oid int64
		if anyOID {
			oid = 1 + g.rng.Int63n(int64(g.n)) // the generator numbers the initial fleet 1..N
		} else {
			oid = g.protected[g.rng.Intn(len(g.protected))]
		}
		tb := 0.25 * float64(g.rng.Intn(int(4*(simtest.Span-width))+1))
		key := [2]float64{float64(oid), tb}
		if !g.seen[key] {
			g.seen[key] = true
			return oid, tb
		}
	}
}

func (g *queryGen) burst(kind burst) []engine.Request {
	avail := &textidx.Predicate{All: []string{"available"}}
	switch kind {
	case burstCold:
		q1, t1 := g.fresh(true, 10)
		q2, t2 := g.fresh(true, 10)
		q3, t3 := g.fresh(true, 10)
		q4, t4 := g.fresh(true, 5)
		return []engine.Request{
			{Kind: engine.KindUQ31, QueryOID: q1, Tb: t1, Te: t1 + 10},
			{Kind: engine.KindUQ33, QueryOID: q2, Tb: t2, Te: t2 + 10, X: 0.25},
			{Kind: engine.KindUQ31, QueryOID: q3, Tb: t3, Te: t3 + 10, Where: avail},
			{Kind: engine.KindUQ41, QueryOID: q4, Tb: t4, Te: t4 + 5, K: 2},
		}
	case burstHot:
		q, tb := g.fresh(false, 10)
		te := tb + 10
		tgt := q
		for tgt == q {
			tgt = g.protected[g.rng.Intn(len(g.protected))]
		}
		at := func(f float64) float64 { return tb + f*(te-tb) }
		whole := func(k engine.Kind) engine.Request {
			return engine.Request{Kind: k, QueryOID: q, Tb: tb, Te: te}
		}
		frac := func(x float64) engine.Request {
			r := whole(engine.KindUQ33)
			r.X = x
			return r
		}
		inst := func(f float64) engine.Request {
			r := whole(engine.KindAllNNAt)
			r.T = at(f)
			return r
		}
		single := func(k engine.Kind) engine.Request {
			r := whole(k)
			r.OID = tgt
			return r
		}
		uq13 := single(engine.KindUQ13)
		uq13.X = 0.3
		nnAt := single(engine.KindNNAt)
		nnAt.T = at(0.5)
		// The first request pays the build; the other 15 share it. Ten of
		// them are window-long retrievals, so the median request sits well
		// inside that mode and not on the edge of the cheaper instant and
		// single-object kinds.
		return []engine.Request{
			whole(engine.KindUQ31),
			whole(engine.KindUQ32), frac(0.2), frac(0.5), frac(0.8), inst(0.25),
			whole(engine.KindUQ31), whole(engine.KindUQ32), frac(0.1), frac(0.35), frac(0.65), frac(0.9), inst(0.75),
			single(engine.KindUQ11), uq13, nnAt,
		}
	default:
		out := make([]engine.Request, 4)
		for i := range out {
			q, tb := g.fresh(false, 10)
			out[i] = engine.Request{Kind: engine.KindUQ31, QueryOID: q, Tb: tb, Te: tb + 10}
			if i%2 == 1 {
				out[i].Kind, out[i].X = engine.KindUQ33, 0.25
			}
		}
		return out
	}
}

// standingShape draws the i-th standing question: a 10-minute window on a
// protected query object — UQ31, UQ33, UQ11 and a rank-2 UQ41 in rotation,
// a quarter of them tag-filtered. Every window lies ahead of the script's
// clock, so whether a batch dirties a question is decided by geometry and
// tags, not by the window having slid into the past.
func (g *queryGen) standingShape(i int) engine.Request {
	pick := func() int64 { return g.protected[g.rng.Intn(len(g.protected))] }
	tb := 40 + 0.25*float64(g.rng.Intn(41))
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

// standingRequests spreads subs subscribers over `shapes` standing
// questions, every fifth subscriber on the first one (the
// many-watchers-one-query skew that dirty-set sharing exists for). It
// returns each subscriber's request and the index of its question.
func (g *queryGen) standingRequests(subs, shapes int) ([]engine.Request, []int) {
	pool := make([]engine.Request, shapes)
	for i := range pool {
		pool[i] = g.standingShape(i)
	}
	reqs, shapeOf := make([]engine.Request, subs), make([]int, subs)
	for i := range reqs {
		if i%5 != 4 {
			shapeOf[i] = i % shapes
		}
		reqs[i] = pool[shapeOf[i]]
	}
	return reqs, shapeOf
}

// ingestBody renders a batch in the gateway's /v1/ingest wire shape:
// vertices as [x, y, t] triplets, tags as a tri-state list.
func ingestBody(ups []mod.Update) ([]byte, error) {
	type wireUpdate struct {
		OID   int64        `json:"oid"`
		Verts [][3]float64 `json:"verts,omitempty"`
		Tags  *[]string    `json:"tags,omitempty"`
	}
	out := make([]wireUpdate, len(ups))
	for i, u := range ups {
		if u.Retire {
			return nil, fmt.Errorf("script: the gateway's ingest body cannot carry a retirement (oid %d)", u.OID)
		}
		wu := wireUpdate{OID: u.OID, Tags: u.Tags}
		if u.Tags != nil && *u.Tags == nil {
			// simtest clears a tag set with a pointer to a nil slice,
			// which JSON would render as null ("leave the tags alone").
			wu.Tags = &[]string{}
		}
		for _, v := range u.Verts {
			wu.Verts = append(wu.Verts, [3]float64{v.X, v.Y, v.T})
		}
		out[i] = wu
	}
	return json.Marshal(struct {
		Updates []wireUpdate `json:"updates"`
	}{out})
}

// answerKey renders the answer-bearing fields of a result canonically.
// Explain is left out: provenance legitimately differs between a serial
// full scan, the pruned engine and a router, the answer bytes must not.
func answerKey(res engine.Result) string {
	if len(res.OIDs) == 0 {
		res.OIDs = nil
	}
	b, err := json.Marshal(struct {
		Kind   engine.Kind       `json:"kind"`
		IsBool bool              `json:"is_bool"`
		Bool   bool              `json:"bool"`
		OIDs   []int64           `json:"oids"`
		Pairs  map[int64][]int64 `json:"pairs"`
		Err    string            `json:"err,omitempty"`
	}{res.Kind, res.IsBool, res.Bool, res.OIDs, res.Pairs, errString(res.Err)})
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
