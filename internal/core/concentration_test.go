package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Quantitative checks of the concentration claims (Propositions 3 and 7):
// the Monte-Carlo estimators are unbiased for the truncated series and
// concentrate as R grows. The paper notes its Hoeffding constants are
// loose in practice; these tests assert empirical behaviour, not the
// stated constants — except the first, which holds the candidate tallies
// to the Hoeffding radius itself.

// The candidate tallies are the one sampler left on the query path (the
// query side is pushed, bounds.go): a cell of a tally, count/R of the
// R = RScore walks from v, is a mean of R indicator variables with
// expectation Pᵗe_v[w], so by Hoeffding (paper §4) it is farther than
// ε = √(ln(2/δ)/2R) from it with probability at most δ. Over 40 seeds —
// the candidate streams are seeded from Params.Seed and v alone
// (candSeed) — and every (step, vertex) cell of the exact support, which
// no walk can leave, the share of cells beyond ε must stay within δ.
func TestCandidateTallyWithinHoeffdingRadius(t *testing.T) {
	g := graph.CopyingModel(2000, 5, 0.3, 21)
	const delta = 0.05
	var exact walkDist
	cells, beyond, worst := 0, 0, 0.0
	for seed := uint64(1); seed <= 40; seed++ {
		p := DefaultParams()
		p.Seed = seed
		e := New(g, p)
		s := e.getScratch()
		R := e.p.RScore
		eps := math.Sqrt(math.Log(2/delta) / (2 * float64(R)))
		// Two hubs, two web vertices, one whose walks die.
		for _, v := range []uint32{5, 17, 35, 999, 1999} {
			e.pushWalkDistInto(&exact, s, v, 0)
			e.simulateCandWalks(s, v, R)
			e.buildFullTally(s, v, R, e.p.RRough, R)
			for step := 0; step < e.p.T; step++ {
				lo, hi := s.tallyOff[step], s.tallyOff[step+1]
				verts, counts := s.tallyV[lo:hi], s.tallyCnt[lo:hi]
				exact.forEach(step, func(w uint32, p float64) {
					q := 0.0
					if j, ok := slices.BinarySearch(verts, w); ok {
						q = float64(counts[j]) / float64(R)
					}
					cells++
					d := math.Abs(p - q)
					worst = max(worst, d)
					if d > eps {
						beyond++
					}
				})
				for _, w := range verts {
					if _, ok := exact.prob(step, w); !ok {
						t.Fatalf("seed %d v=%d step %d: a walk at vertex %d, where the exact mass is zero", seed, v, step, w)
					}
				}
			}
		}
		e.putScratch(s)
		if seed == 40 {
			t.Logf("%d cells, %d beyond ε = %.5f (δ = %v), largest deviation %.5f", cells, beyond, eps, delta, worst)
		}
	}
	if cells < 100000 || worst == 0 {
		t.Fatalf("%d cells with largest deviation %v: nothing was compared", cells, worst)
	}
	if float64(beyond) > delta*float64(cells) {
		t.Fatalf("%d of %d cells are farther than ε from the exact mass: more than δ = %v", beyond, cells, delta)
	}
}

func TestSinglePairConcentration(t *testing.T) {
	g := graph.Collaboration(60, 5, 0.8, 20, 3)
	e := testEngine(g, 1)
	d := exact.UniformDiagonal(g.N(), e.p.C)

	// Pick a pair with a solidly positive score.
	var u, v uint32
	found := false
	for a := uint32(0); int(a) < g.N() && !found; a++ {
		row := exact.SingleSource(g, d, e.p.C, e.p.T, a)
		for b := 0; b < g.N(); b++ {
			if uint32(b) != a && row[b] > 0.1 {
				u, v = a, uint32(b)
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no high-score pair in generated graph")
	}
	want := exact.SinglePair(g, d, e.p.C, e.p.T, u, v)

	const trials = 300
	sc := e.getScratch()
	defer e.putScratch(sc)
	run := func(R int) (mean, std float64) {
		r := rng.New(99)
		var sum, sumsq float64
		for i := 0; i < trials; i++ {
			s := e.singlePairR(u, v, R, r, sc)
			sum += s
			sumsq += s * s
		}
		mean = sum / trials
		std = math.Sqrt(sumsq/trials - mean*mean)
		return mean, std
	}

	mean100, std100 := run(100)
	if math.Abs(mean100-want) > 3*std100/math.Sqrt(trials)+0.01 {
		t.Fatalf("R=100 estimator biased: mean %v vs exact %v (std %v)", mean100, want, std100)
	}
	_, std400 := run(400)
	// Variance should shrink roughly like 1/R: std ratio ≈ 2, allow slack.
	if std400 > 0.75*std100 {
		t.Fatalf("no concentration: std(R=100)=%v std(R=400)=%v", std100, std400)
	}
}

func TestOneSidedVarianceReduction(t *testing.T) {
	// The one-sided estimator (near-exact u-side) must have lower
	// variance than two-sided Algorithm 1 at equal v-side R.
	g := graph.Collaboration(60, 5, 0.8, 20, 9)
	e := testEngine(g, 2)
	d := exact.UniformDiagonal(g.N(), e.p.C)
	var u, v uint32
	found := false
	for a := uint32(0); int(a) < g.N() && !found; a++ {
		row := exact.SingleSource(g, d, e.p.C, e.p.T, a)
		for b := 0; b < g.N(); b++ {
			if uint32(b) != a && row[b] > 0.1 {
				u, v = a, uint32(b)
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no high-score pair")
	}
	const trials = 250
	r := rng.New(5)
	sc := e.getScratch()
	defer e.putScratch(sc)
	var wd walkDist
	e.pushWalkDistInto(&wd, sc, u, 0)
	variance := func(f func() float64) float64 {
		var sum, sumsq float64
		for i := 0; i < trials; i++ {
			s := f()
			sum += s
			sumsq += s * s
		}
		mean := sum / trials
		return sumsq/trials - mean*mean
	}
	varTwo := variance(func() float64 { return e.singlePairR(u, v, 100, r, sc) })
	varOne := variance(func() float64 { return e.singlePairOneSided(sc, &wd, v, 100, r) })
	if varOne > varTwo {
		t.Fatalf("one-sided variance %v not below two-sided %v", varOne, varTwo)
	}
}
