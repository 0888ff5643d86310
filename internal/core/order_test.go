package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/queries"
	"repro/internal/workload"
)

// TestSnapshotOrderIrrelevant: a processor built from a shuffled snapshot —
// a full scan, and one over the pre-pass survivors (shuffled too) — answers
// every P = 0 query kind at ranks 1–3 exactly as one built from the sorted
// snapshot, and the IPAC-NN tree read off it serializes to the same bytes.
func TestSnapshotOrderIrrelevant(t *testing.T) {
	trs, err := workload.Generate(workload.DefaultConfig(7), 150)
	if err != nil {
		t.Fatal(err)
	}
	store, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q, tb, te := trs[0], 10.0, 40.0
	survivors, _, _, _, err := prune.ZoneWhereCtx(ctx, store, q, tb, te, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	sorted := store.All()
	shuffled := slices.Clone(sorted)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	mixed := slices.Clone(survivors)
	rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })

	for _, mode := range []struct {
		name      string
		survivors []int64
		shuffled  []int64
	}{{"full", nil, nil}, {"pruned", survivors, mixed}} {
		want, err := queries.NewProcessorPrunedCtx(ctx, sorted, q, tb, te, store.Radius(), mode.survivors)
		if err != nil {
			t.Fatal(err)
		}
		got, err := queries.NewProcessorPrunedCtx(ctx, shuffled, q, tb, te, store.Radius(), mode.shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := answers(want), answers(got); a != b {
			t.Fatalf("%s: sorted snapshot answers\n%s\nshuffled snapshot answers\n%s", mode.name, a, b)
		}
		var a, b bytes.Buffer
		cfg := Config{MaxLevels: 3, Descriptors: true, DescriptorSamples: 4, Grid: 64}
		for _, c := range []struct {
			p *queries.Processor
			w *bytes.Buffer
		}{{want, &a}, {got, &b}} {
			tree, err := FromProcessor(ctx, c.p, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.WriteJSON(c.w); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: the tree of the shuffled snapshot serializes differently", mode.name)
		}
	}
}

// answers prints every P = 0 answer of p at ranks 1–3: the whole-MOD
// retrievals, and each candidate's intervals and predicates, at full float
// precision.
func answers(p *queries.Processor) string {
	var b bytes.Buffer
	tf := (p.Tb + p.Te) / 2
	for k := 1; k <= 3; k++ {
		scan, err := p.ScanOIDs(k)
		fmt.Fprintf(&b, "k=%d scan %v %v\n", k, scan, err)
		for _, x := range []float64{0, 0.3, 1} {
			ids, err := p.UQ43(k, x)
			fmt.Fprintf(&b, "UQ43(%d, %g) %v %v\n", k, x, ids, err)
		}
		ids, err := p.PossibleRankKAt(tf, k)
		fmt.Fprintf(&b, "RankAt(%d) %v %v\n", k, ids, err)
		for _, oid := range p.CandidateOIDs() {
			e, errE := p.UQ21(oid, k)
			a, errA := p.UQ22(oid, k)
			x, errX := p.UQ23(oid, k, 0.3)
			at, errAt := p.IsPossibleRankKAt(oid, tf, k)
			fmt.Fprintf(&b, "%d@%d %v %v %v %v %v %v %v %v\n", oid, k, e, errE, a, errA, x, errX, at, errAt)
		}
	}
	fmt.Fprintf(&b, "UQ31 %v\n", p.UQ31())
	for _, oid := range p.CandidateOIDs() {
		ivs, err := p.PossibleNNIntervals(oid)
		at, errAt := p.IsPossibleNNAt(oid, tf)
		g, errG := p.GuaranteedNNIntervals(oid)
		fmt.Fprintf(&b, "%d %v %v %v %v %v %v\n", oid, ivs, err, at, errAt, g, errG)
	}
	return b.String()
}
