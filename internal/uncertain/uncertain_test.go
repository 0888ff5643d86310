package uncertain

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
	"repro/internal/updf"
)

func near(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// eq4Uniform is the paper's Eq. 4 transcribed literally (uniform pdf,
// query outside the uncertainty zone), used as an independent oracle for
// WithinDistanceProb's lens-area fast path.
func eq4Uniform(diQ, r, rd float64) float64 {
	switch {
	case rd < diQ-r:
		return 0
	case rd > diQ+r:
		return 1
	}
	clamp := func(x float64) float64 { return math.Max(-1, math.Min(1, x)) }
	theta := math.Acos(clamp((diQ*diQ + r*r - rd*rd) / (2 * diQ * r)))
	alpha := math.Acos(clamp((diQ*diQ + rd*rd - r*r) / (2 * diQ * rd)))
	return 1/(r*r*math.Pi)*(rd*rd*(alpha-0.5*math.Sin(2*alpha))) +
		1/math.Pi*(theta-0.5*math.Sin(2*theta))
}

func TestWithinDistanceProbMatchesEq4(t *testing.T) {
	u := updf.NewUniformDisk(1)
	for _, d := range []float64{1.5, 2, 3, 5} {
		for _, rd := range numeric.Linspace(d-1, d+1, 21) {
			if rd <= 0 {
				continue
			}
			got := WithinDistanceProb(u, d, rd)
			want := eq4Uniform(d, 1, rd)
			if !near(got, want, 1e-9) {
				t.Errorf("d=%g rd=%g: lens=%.9g eq4=%.9g", d, rd, got, want)
			}
		}
	}
}

func TestWithinDistanceProbBounds(t *testing.T) {
	pdfs := []updf.RadialPDF{
		updf.NewUniformDisk(1),
		updf.NewCone(2),
		updf.NewUniformConv(1, 1),
		updf.NewBoundedGaussian(1, 0.4),
		updf.NewEpanechnikov(1),
	}
	for _, p := range pdfs {
		sup := p.Support()
		d := 3.0
		if got := WithinDistanceProb(p, d, 0); got != 0 {
			t.Errorf("%s: P(rd=0) = %g", p.Name(), got)
		}
		if got := WithinDistanceProb(p, d, -1); got != 0 {
			t.Errorf("%s: P(rd<0) = %g", p.Name(), got)
		}
		if got := WithinDistanceProb(p, d, d-sup); got != 0 {
			t.Errorf("%s: P below ring = %g", p.Name(), got)
		}
		if got := WithinDistanceProb(p, d, d+sup); !near(got, 1, 1e-6) {
			t.Errorf("%s: P at ring top = %g", p.Name(), got)
		}
		if got := WithinDistanceProb(p, d, d+sup+1); got != 1 {
			t.Errorf("%s: P above ring = %g", p.Name(), got)
		}
		// Monotone in rd.
		prev := -1.0
		for _, rd := range numeric.Linspace(math.Max(0.01, d-sup), d+sup, 60) {
			v := WithinDistanceProb(p, d, rd)
			if v < prev-1e-9 {
				t.Errorf("%s: not monotone at rd=%g (%g < %g)", p.Name(), rd, v, prev)
			}
			prev = v
		}
	}
}

// TestWithinDistanceProbQueryInsideZone covers the case the paper's
// footnote 1 mentions: the query point inside the uncertainty zone.
func TestWithinDistanceProbQueryInsideZone(t *testing.T) {
	u := updf.NewUniformDisk(2)
	// Query at distance 0.5 from center, zone radius 2.
	// P(within rd) for rd=2.5 (= d+sup): full containment.
	if got := WithinDistanceProb(u, 0.5, 2.5); !near(got, 1, 1e-9) {
		t.Errorf("containment = %g", got)
	}
	// Small rd: query disk entirely inside the zone; probability is the
	// area ratio rd²/R².
	got := WithinDistanceProb(u, 0.5, 1)
	want := (1.0 * 1.0) / (2.0 * 2.0)
	if !near(got, want, 1e-9) {
		t.Errorf("inside-zone small disk: %g, want %g", got, want)
	}
	// d = 0 exactly (centers coincide).
	if got := WithinDistanceProb(u, 0, 1); !near(got, 0.25, 1e-9) {
		t.Errorf("d=0: %g", got)
	}
}

func TestWithinDistanceProbVsMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pdfs := []updf.RadialPDF{
		updf.NewCone(2),
		updf.NewBoundedGaussian(1, 0.5),
		updf.NewEpanechnikov(1.5),
	}
	const n = 100000
	for _, p := range pdfs {
		s := p.(updf.Sampler)
		for _, d := range []float64{0.5, 2, 4} {
			for _, rd := range []float64{0.8, 2, 4.2} {
				want := WithinDistanceProb(p, d, rd)
				count := 0
				for i := 0; i < n; i++ {
					dx, dy := s.Sample(rng)
					if math.Hypot(d+dx, dy) <= rd {
						count++
					}
				}
				got := float64(count) / n
				if math.Abs(got-want) > 0.01 {
					t.Errorf("%s d=%g rd=%g: MC=%.4f analytic=%.4f", p.Name(), d, rd, got, want)
				}
			}
		}
	}
}

func TestRingBoundsAndPrune(t *testing.T) {
	u := updf.NewUniformDisk(1)
	cands := []Candidate{
		{ID: 1, Dist: 3},  // ring [2,4]
		{ID: 2, Dist: 4},  // ring [3,5]
		{ID: 3, Dist: 10}, // ring [9,11] — prunable: 9 > 4
	}
	lo, hi := RingBounds(u, cands)
	if lo != 2 || hi != 4 {
		t.Errorf("RingBounds = [%g, %g], want [2, 4]", lo, hi)
	}
	live := Prune(u, cands)
	if len(live) != 2 || live[0].ID != 1 || live[1].ID != 2 {
		t.Errorf("Prune = %v", live)
	}
	// Boundary case: R^min exactly equals hi is kept (non-zero measure edge
	// handled conservatively).
	cands = append(cands, Candidate{ID: 4, Dist: 5}) // ring [4,6], rmin=4=hi
	live = Prune(u, cands)
	found := false
	for _, c := range live {
		if c.ID == 4 {
			found = true
		}
	}
	if !found {
		t.Error("boundary candidate should be kept")
	}
	if got := Prune(u, nil); got != nil {
		t.Errorf("Prune(nil) = %v", got)
	}
}

func TestNNProbabilitiesBasic(t *testing.T) {
	u := updf.NewUniformDisk(1)
	// Single candidate gets probability 1.
	probs := NNProbabilities(u, []Candidate{{ID: 7, Dist: 3}}, 0)
	if !near(probs[7], 1, 1e-12) {
		t.Errorf("single candidate: %g", probs[7])
	}
	// Empty input.
	if got := NNProbabilities(u, nil, 0); len(got) != 0 {
		t.Errorf("empty input: %v", got)
	}
	// Two symmetric candidates split evenly.
	probs = NNProbabilities(u, []Candidate{{ID: 1, Dist: 3}, {ID: 2, Dist: 3}}, 0)
	if !near(probs[1], 0.5, 0.01) || !near(probs[2], 0.5, 0.01) {
		t.Errorf("symmetric pair: %v", probs)
	}
	// Disjoint rings: nearer candidate takes everything.
	probs = NNProbabilities(u, []Candidate{{ID: 1, Dist: 2}, {ID: 2, Dist: 10}}, 0)
	if !near(probs[1], 1, 1e-9) || !near(probs[2], 0, 1e-12) {
		t.Errorf("disjoint rings: %v", probs)
	}
}

func TestNNProbabilitiesSumToOne(t *testing.T) {
	// Continuous distance distributions make ties measure-zero, so the
	// exclusive probabilities sum to 1 up to discretization error.
	rng := rand.New(rand.NewSource(5))
	u := updf.NewUniformDisk(1)
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(6)
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = Candidate{ID: int64(i), Dist: 1.5 + 3*rng.Float64()}
		}
		probs := NNProbabilities(u, cands, 1024)
		var sum float64
		for _, v := range probs {
			sum += v
		}
		if sum > 1+1e-4 || sum < 0.99 {
			t.Errorf("trial %d: sum = %.6f (cands=%v)", trial, sum, cands)
		}
	}
}

func TestNNProbabilitiesVsMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pdfs := []updf.RadialPDF{
		updf.NewUniformDisk(1),
		updf.NewUniformConv(1, 1),
		updf.NewBoundedGaussian(1, 0.5),
	}
	cands := []Candidate{
		{ID: 1, Dist: 2.0},
		{ID: 2, Dist: 2.3},
		{ID: 3, Dist: 3.1},
		{ID: 4, Dist: 6.0}, // often prunable
	}
	for _, p := range pdfs {
		want := NNProbabilities(p, cands, 2048)
		got, err := MonteCarloNN(p, cands, 300000, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			if math.Abs(got[c.ID]-want[c.ID]) > 0.01 {
				t.Errorf("%s id=%d: MC=%.4f analytic=%.4f", p.Name(), c.ID, got[c.ID], want[c.ID])
			}
		}
	}
}

func TestNNProbabilitiesNaiveAgreesWithEfficient(t *testing.T) {
	u := updf.NewUniformDisk(1)
	cands := []Candidate{
		{ID: 1, Dist: 2.0},
		{ID: 2, Dist: 2.5},
		{ID: 3, Dist: 9.0},
	}
	eff := NNProbabilities(u, cands, 4096)
	naive := NNProbabilitiesNaive(u, cands, 16384)
	for _, c := range cands {
		if math.Abs(eff[c.ID]-naive[c.ID]) > 5e-3 {
			t.Errorf("id=%d: efficient=%.5f naive=%.5f", c.ID, eff[c.ID], naive[c.ID])
		}
	}
	if got := NNProbabilitiesNaive(u, nil, 0); len(got) != 0 {
		t.Errorf("naive empty: %v", got)
	}
	// Degenerate: all at origin with a pdf of tiny support.
	deg := NNProbabilitiesNaive(u, []Candidate{{ID: 1, Dist: 0}, {ID: 2, Dist: 0}}, 64)
	sum := deg[1] + deg[2]
	if !near(deg[1], deg[2], 0.05) || sum > 1.01 {
		t.Errorf("degenerate naive: %v", deg)
	}
}

// TestLemma1CloserMeansMoreProbable verifies Lemma 1: strictly smaller
// center distance implies strictly larger NN probability.
func TestLemma1CloserMeansMoreProbable(t *testing.T) {
	for _, p := range []updf.RadialPDF{
		updf.NewUniformDisk(1),
		updf.NewUniformConv(1, 1),
		updf.NewEpanechnikov(1),
	} {
		cands := []Candidate{
			{ID: 1, Dist: 2.0},
			{ID: 2, Dist: 2.4},
			{ID: 3, Dist: 2.8},
		}
		probs := NNProbabilities(p, cands, 1024)
		if !(probs[1] > probs[2] && probs[2] > probs[3]) {
			t.Errorf("%s: Lemma 1 violated: %v", p.Name(), probs)
		}
	}
}

// TestTheorem1RankingProperty is the paper's Theorem 1 as a property test:
// for random center distances, the probability ranking equals the distance
// ranking (for rotationally symmetric shared pdfs).
func TestTheorem1RankingProperty(t *testing.T) {
	u := updf.NewUniformConv(1, 1) // the convolved pdf of the uncertain-query reduction
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		cands := make([]Candidate, n)
		for i := range cands {
			// Separated distances so discretization noise cannot flip ranks.
			cands[i] = Candidate{ID: int64(i), Dist: 2 + 0.4*float64(i) + 0.2*rng.Float64()}
		}
		rng.Shuffle(n, func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
		probs := NNProbabilities(u, cands, 768)
		ranked := RankByDistance(cands)
		for i := 1; i < len(ranked); i++ {
			if probs[ranked[i-1].ID] < probs[ranked[i].ID]-1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRankByDistance(t *testing.T) {
	cands := []Candidate{{ID: 3, Dist: 5}, {ID: 1, Dist: 2}, {ID: 2, Dist: 2}, {ID: 4, Dist: 1}}
	ranked := RankByDistance(cands)
	wantIDs := []int64{4, 1, 2, 3} // stable for the tie at 2
	for i, w := range wantIDs {
		if ranked[i].ID != w {
			t.Fatalf("rank %d = %d, want %d (%v)", i, ranked[i].ID, w, ranked)
		}
	}
	// Input untouched.
	if cands[0].ID != 3 {
		t.Error("input mutated")
	}
}

// rankOf returns IDs sorted by descending probability.
func rankOf(probs map[int64]float64) []int64 {
	ids := make([]int64, 0, len(probs))
	for id := range probs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return probs[ids[a]] > probs[ids[b]] })
	return ids
}

// convolvedNN is Section 3.1's reduction as the threshold queries run it:
// Eq. 5 against the convolution of the object and query pdfs.
func convolvedNN(t *testing.T, obj, qry updf.RadialPDF, cands []Candidate, grid int) map[int64]float64 {
	t.Helper()
	conv, err := updf.ConvolvePair(obj, qry, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NNProbabilities(conv, cands, grid)
}

// TestUncertainQueryReductionRanking validates the Section 3.1 reduction
// the way the paper uses it: the convolution + Eq. 5 values rank candidates
// exactly as the true (two-sided Monte Carlo) probabilities do, even though
// the values themselves carry an independence approximation (the distances
// |V_i − V_q| share V_q).
func TestUncertainQueryReductionRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	obj := updf.NewUniformDisk(0.8)
	qry := updf.NewUniformDisk(0.8)
	cands := []Candidate{
		{ID: 1, Dist: 2.2},
		{ID: 2, Dist: 2.7},
		{ID: 3, Dist: 3.5},
	}
	want := convolvedNN(t, obj, qry, cands, 2048)
	got, err := MonteCarloUncertainQueryNN(obj, qry, cands, 300000, rng)
	if err != nil {
		t.Fatal(err)
	}
	wr, gr := rankOf(want), rankOf(got)
	for i := range wr {
		if wr[i] != gr[i] {
			t.Fatalf("ranking differs: reduction=%v MC=%v (probs %v vs %v)", wr, gr, want, got)
		}
	}
	// The approximation should still be in the right ballpark.
	for _, c := range cands {
		if math.Abs(got[c.ID]-want[c.ID]) > 0.15 {
			t.Errorf("id=%d: MC=%.4f reduction=%.4f (approximation too loose)", c.ID, got[c.ID], want[c.ID])
		}
	}
}

// TestUncertainQueryReductionNumericPDFs exercises the numeric-convolution
// fallback (bounded Gaussian query pdf) and checks ranking agreement.
func TestUncertainQueryReductionNumericPDFs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	obj := updf.NewUniformDisk(0.6)
	qry := updf.NewBoundedGaussian(0.6, 0.3)
	cands := []Candidate{
		{ID: 1, Dist: 1.8},
		{ID: 2, Dist: 2.4},
	}
	want := convolvedNN(t, obj, qry, cands, 1024)
	got, err := MonteCarloUncertainQueryNN(obj, qry, cands, 200000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if (want[1] > want[2]) != (got[1] > got[2]) {
		t.Errorf("ranking differs: reduction=%v MC=%v", want, got)
	}
	for _, c := range cands {
		if math.Abs(got[c.ID]-want[c.ID]) > 0.15 {
			t.Errorf("id=%d: MC=%.4f reduction=%.4f", c.ID, got[c.ID], want[c.ID])
		}
	}
}

func TestMonteCarloNNErrors(t *testing.T) {
	// A pdf that is not a Sampler.
	tab, err := updf.NewTablePDF(numeric.Linspace(0, 1, 8), []float64{1, 1, 1, 1, 1, 1, 1, 1}, "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MonteCarloNN(tab, []Candidate{{ID: 1, Dist: 1}}, 10, rand.New(rand.NewSource(1))); err != ErrNoSampler {
		t.Errorf("want ErrNoSampler, got %v", err)
	}
	if _, err := MonteCarloUncertainQueryNN(tab, tab, nil, 10, rand.New(rand.NewSource(1))); err != ErrNoSampler {
		t.Errorf("want ErrNoSampler, got %v", err)
	}
}

// TestNNProbabilitiesManyCandidates is a light stress test: 50 candidates,
// ranking must match distance order among the unpruned survivors.
func TestNNProbabilitiesManyCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	u := updf.NewUniformDisk(0.5)
	cands := make([]Candidate, 50)
	for i := range cands {
		cands[i] = Candidate{ID: int64(i), Dist: 1 + 10*rng.Float64()}
	}
	probs := NNProbabilities(u, cands, 512)
	var sum float64
	for _, v := range probs {
		sum += v
	}
	if sum > 1+1e-4 || sum < 0.98 {
		t.Errorf("sum = %g", sum)
	}
	// Ranking among positive-probability candidates follows distance.
	type pair struct {
		d, p float64
	}
	var pos []pair
	for _, c := range cands {
		if probs[c.ID] > 1e-6 {
			pos = append(pos, pair{c.Dist, probs[c.ID]})
		}
	}
	sort.Slice(pos, func(a, b int) bool { return pos[a].d < pos[b].d })
	for i := 1; i < len(pos); i++ {
		if pos[i].p > pos[i-1].p+1e-6 {
			t.Errorf("rank inversion at %d: d=%g p=%g vs d=%g p=%g",
				i, pos[i].d, pos[i].p, pos[i-1].d, pos[i-1].p)
		}
	}
}
