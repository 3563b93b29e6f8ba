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

// The candidate walks are the one sampler left on the Monte-Carlo query
// path (the query side is pushed, bounds.go): a cell of a candidate's tally, count/R
// of the R = RScore walks from v at step t, is a mean of R indicator
// variables with expectation Pᵗe_v[w], so by Hoeffding (paper §4) it is
// farther than ε = √(ln(2/δ)/2R) from it with probability at most δ. The
// tally counts the positions candWalks writes. Over 40 seeds — the
// candidate streams are seeded from Params.Seed and v alone (candSeed) —
// and every (step, vertex) cell of the exact support, which no walk can
// leave, the share of cells beyond ε must stay within δ.
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
		R, T := e.p.RScore, e.p.T
		eps := math.Sqrt(math.Log(2/delta) / (2 * float64(R)))
		pos := make([]uint32, T*R)
		// Two hubs, two web vertices, one whose walks die.
		for _, v := range []uint32{5, 17, 35, 999, 1999} {
			e.pushWalkDistInto(&exact, s, v, 0, true)
			resetWalks(pos[:R], v) // row 0: every walk starts at v
			e.candWalks([]graph.WalkLane{{Start: v, Out: pos}}, 0, R, T-1, R)
			for step := 0; step < T; step++ {
				s.beginTally()
				for _, w := range pos[step*R : (step+1)*R] {
					if w != Dead {
						s.tallyCount(w)
					}
				}
				exact.forEach(step, func(w uint32, p float64) {
					q := 0.0
					if s.mark[w] == s.epoch {
						q = float64(s.cnt[w]) / float64(R)
					}
					cells++
					d := math.Abs(p - q)
					worst = max(worst, d)
					if d > eps {
						beyond++
					}
				})
				for _, w := range s.touched {
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

// The score a query serves is the mean, over the R = RScore walks from the
// candidate v, of one walk's contribution X = Σ_{t<h} cᵗ·D_ww·p̂_u,t(w_t),
// w_t the walk's step-t vertex and p̂_u the query side as the plan has it
// (pushed, cut at its horizon h). X lies in [0, B] with
// B = Σ_{t<h} cᵗ·max_w D_ww·p̂_u,t(w), and its expectation μ is the series
// of p̂_u against v's exact distribution. Two radii hold the score to μ,
// each exceeded with probability at most δ:
//
//   - Hoeffding (paper §4): B·√(ln(2/δ)/2R), one per query;
//   - empirical Bernstein (Maurer and Pontil, two-sided):
//     √(2·V·ln(4/δ)/R) + 7B·ln(4/δ)/(3(R−1)), V the sample variance of the
//     candidate's R contributions, recomputed here from its walks
//     (refCandWalks) — whose mean must be the served score.
//
// Hoeffding's range B is loose: a contribution is mostly far below it, so
// served scores doubled still pass it, and so they do the variance-aware
// radius, whose range term 7B·ln(4/δ)/(3(R−1)) is 0.10·B at R = 100
// against Hoeffding's 0.14·B. The test logs the share beyond each radius
// with the served scores scaled up: the Bernstein check fails from ×3.5
// on, Hoeffding's from ×4. DisableAdaptive scores every candidate on all R walks, so no candidate
// is selected by its own walks. Over 40 engine seeds and every candidate
// of every plan, the share of scores beyond either radius must stay within
// δ. The seeds are spread with rng.Mix: walk i draws the stream
// Mix(candSeed + i) (walkSeed), and consecutive seeds move candSeed by
// about one, so seeds 1..40 would share most of their walks.
func TestServedScoreWithinHoeffdingRadius(t *testing.T) {
	g := graph.CopyingModel(2000, 5, 0.3, 21)
	const delta = 0.05
	scales := []float64{1, 2, 3, 3.5, 4}
	var exact walkDist
	var pos []uint32
	scores, worst, worstB := 0, 0.0, 0.0
	beyond := make([][2]int, len(scales)) // per scale: Hoeffding, Bernstein
	for k := uint64(1); k <= 40; k++ {
		p := DefaultParams()
		p.Seed = rng.Mix(k)
		p.DisableAdaptive = true
		e := Build(g, p)
		qs, s := e.getScratch(), e.getScratch()
		R, T := e.p.RScore, e.p.T
		lnB := math.Log(4 / delta)
		pos = slices.Grow(pos[:0], T*R)[:T*R]
		for _, u := range []uint32{5, 17, 35, 999, 1999} {
			plan := e.queryPlan(qs, u)
			wd := plan.wd
			h := wd.steps()
			B, ct := 0.0, 1.0
			for step := 0; step < h; step++ {
				top := 0.0
				wd.forEach(step, func(w uint32, pr float64) { top = max(top, e.p.dval(w)*pr) })
				B += ct * top
				ct *= e.p.C
			}
			radius := B * math.Sqrt(math.Log(2/delta)/(2*float64(R)))
			out := make([]ShardCand, len(plan.cands))
			qs.slots.build(wd, qs.n)
			e.scoreBlock(qs, plan.cands, out, &qs.slots, 0)
			qs.slots.clear()
			for _, c := range out {
				if c.State != ShardScoredNoRough {
					t.Fatalf("seed %d u=%d v=%d: candidate left in state %v", k, u, c.V, c.State)
				}
				// The R contributions, from the candidate's own walks.
				refCandWalks(e.Snapshot, c.V, R, pos)
				mean, sq := 0.0, 0.0
				for i := 0; i < R; i++ {
					x, ct := 0.0, 1.0
					if pr, ok := wd.prob(0, c.V); ok && h > 0 {
						x = e.p.dval(c.V) * pr
					}
					for step := 1; step < h; step++ {
						ct *= e.p.C
						w := pos[step*R+i]
						if w == Dead {
							break
						}
						if pr, ok := wd.prob(step, w); ok {
							x += ct * e.p.dval(w) * pr
						}
					}
					// Welford's update: the mean and the sum of squared deviations.
					d := x - mean
					mean += d / float64(i+1)
					sq += d * (x - mean)
				}
				if math.Abs(mean-c.Score) > 1e-12 {
					t.Fatalf("seed %d u=%d v=%d: served %v, the mean of its walks' contributions %v", k, u, c.V, c.Score, mean)
				}
				bern := math.Sqrt(2*sq/float64(R-1)*lnB/float64(R)) + 7*B*lnB/(3*float64(R-1))
				e.pushWalkDistInto(&exact, s, c.V, 0, true)
				mu := e.dotSeries(wd, &exact)
				scores++
				worst = max(worst, math.Abs(c.Score-mu)/radius)
				worstB = max(worstB, math.Abs(c.Score-mu)/bern)
				for j, f := range scales {
					d := math.Abs(f*c.Score - mu)
					if d > radius {
						beyond[j][0]++
					}
					if d > bern {
						beyond[j][1]++
					}
				}
			}
		}
		e.putScratch(s)
		e.putScratch(qs)
	}
	if scores < 1000 || worst == 0 {
		t.Fatalf("%d scores with largest deviation %v: nothing was compared", scores, worst)
	}
	fails := func(j, check int) bool { return float64(beyond[j][check]) > delta*float64(scores) }
	for j, f := range scales {
		t.Logf("scores ×%v: %d of %d beyond the Hoeffding radius (fails: %v), %d beyond the empirical-Bernstein one (fails: %v)",
			f, beyond[j][0], scores, fails(j, 0), beyond[j][1], fails(j, 1))
	}
	t.Logf("largest deviation %.3f of the Hoeffding radius, %.3f of the empirical-Bernstein one (δ = %v)", worst, worstB, delta)
	for check, name := range []string{"Hoeffding", "empirical-Bernstein"} {
		if fails(0, check) {
			t.Fatalf("%d of %d scores are farther than the %s radius from their expectation: more than δ = %v", beyond[0][check], scores, name, delta)
		}
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
	e.pushWalkDistInto(&wd, sc, u, 0, true)
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
