package core

import (
	"math"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Quantitative checks of the concentration claims (Propositions 3 and 7):
// the Monte-Carlo estimators are unbiased for the truncated series and
// concentrate as R grows. The paper notes its Hoeffding constants are
// loose in practice; these tests assert empirical behaviour, not the
// stated constants — except the last, which holds the sampled query side
// to the Hoeffding radius itself.

// The estimator the exact push replaces wherever it is cheap, and the one
// every hub still gets: a cell of the sampled distribution, count/R of R
// independent walks, is a mean of R indicator variables with expectation
// Pᵗe_u[w], so by Hoeffding (paper §4) it is farther than
// ε = √(ln(2/δ)/2R) from it with probability at most δ. Over many seeds
// and every (step, vertex) cell of the exact support — no walk can be
// anywhere else — the share of cells beyond ε must stay within δ.
func TestSampledWalkDistWithinHoeffdingRadius(t *testing.T) {
	g := graph.CopyingModel(2000, 5, 0.3, 21)
	e := New(g, DefaultParams())
	s := e.getScratch()
	defer e.putScratch(s)
	const delta = 0.05
	R := e.p.RAlpha
	eps := math.Sqrt(math.Log(2/delta) / (2 * float64(R)))
	var exact, sampled walkDist
	cells, beyond, worst := 0, 0, 0.0
	// Two hubs a query samples, two vertices it pushes, one whose walks die.
	for _, u := range []uint32{5, 17, 35, 999, 1999} {
		if !e.exactWalkDistInto(&exact, s, u, math.MaxInt) {
			t.Fatal("unbounded push refused")
		}
		for seed := uint64(1); seed <= 40; seed++ {
			e.sampleWalkDistInto(&sampled, s, u, R, rng.New(seed))
			for step := 0; step < e.p.T; step++ {
				cell := func(p, q float64) {
					cells++
					d := math.Abs(p - q)
					worst = max(worst, d)
					if d > eps {
						beyond++
					}
				}
				exact.forEach(step, func(w uint32, p float64) {
					q, _ := sampled.prob(step, w)
					cell(p, q)
				})
				sampled.forEach(step, func(w uint32, q float64) {
					if _, ok := exact.prob(step, w); !ok {
						t.Fatalf("u=%d seed %d step %d: a walk at vertex %d, where the exact mass is zero", u, seed, step, w)
					}
				})
			}
		}
	}
	t.Logf("%d cells, %d beyond ε = %.5f (δ = %v), largest deviation %.5f", cells, beyond, eps, delta, worst)
	if cells < 100000 || worst == 0 {
		t.Fatalf("%d cells with largest deviation %v: nothing was compared", cells, worst)
	}
	if float64(beyond) > delta*float64(cells) {
		t.Fatalf("%d of %d cells are farther than ε = %v from the exact mass: more than δ = %v", beyond, cells, eps, delta)
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
	if !e.exactWalkDistInto(&wd, sc, u, math.MaxInt) {
		t.Fatal("push budget hit")
	}
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
