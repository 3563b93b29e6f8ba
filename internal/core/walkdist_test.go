package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// The linear-time ordering must produce exactly what a comparison sort
// does, and the directory it returns must delimit the buckets of the
// sorted list, for every shape of id set the bucket geometry
// distinguishes. Enumerating a rank bitset's bits must produce the same
// order from the same unordered list, with ranks that count the support
// below each word.
func TestOrderTouchedMatchesSort(t *testing.T) {
	r := rng.New(7)
	for _, tc := range []struct {
		name string
		n, S int
		// id maps a draw in [0, n) to a vertex id.
		id func(x, n int) int
	}{
		{"random", 100000, 5000, func(x, n int) int { return x }},
		{"random-npow2", 4096, 700, func(x, n int) int { return x }},
		{"dense", 1000, 1000, func(x, n int) int { return x }},
		{"clustered-low", 100000, 300, func(x, n int) int { return x % 600 }},
		{"single-bucket", 1 << 20, 16, func(x, n int) int { return 512 + x%64 }},
		{"top-ids", 5000, 40, func(x, n int) int { return n - 1 - x%80 }},
		{"S=0", 77, 0, nil},
		{"S=1", 77, 1, func(x, n int) int { return n - 1 }},
		{"S=2", 77, 2, func(x, n int) int { return x }},
		{"S=singleBucketMax", 900, singleBucketMax, func(x, n int) int { return x }},
		{"S=singleBucketMax+1", 900, singleBucketMax + 1, func(x, n int) int { return x }},
		{"n=1", 1, 1, func(x, n int) int { return 0 }},
	} {
		s := newScratch(tc.n)
		for round := 0; round < 3; round++ {
			s.beginTally()
			for len(s.touched) < tc.S {
				s.tallyCount(uint32(tc.id(r.Intn(tc.n), tc.n)))
			}
			want := slices.Clone(s.touched)
			slices.Sort(want)
			var wd walkDist
			wd.reset(1)
			wd.setRankSupport(0, tc.n, s.touched)
			if !slices.Equal(wd.verts[0], want) || !wd.dense(0) {
				t.Fatalf("%s: bit enumeration gave %v, want %v", tc.name, wd.verts[0], want)
			}
			bits32, rank := wd.ranks(0)
			if len(rank) != rankWords(tc.n) || len(bits32) != 2*len(rank) {
				t.Fatalf("%s: %d bit words, %d ranks for n=%d", tc.name, len(bits32), len(rank), tc.n)
			}
			for k, r := range rank {
				if below, _ := slices.BinarySearch(want, uint32(k<<6)); int(r) != below {
					t.Fatalf("%s: rank[%d] = %d, %d support vertices below %d", tc.name, k, r, below, k<<6)
				}
			}
			dir, shift := s.orderTouched()
			if !slices.Equal(s.touched, want) {
				t.Fatalf("%s: ordered %v, want %v", tc.name, s.touched, want)
			}
			if dir[0] != 0 || int(dir[len(dir)-1]) != len(want) {
				t.Fatalf("%s: directory spans [%d, %d), want [0, %d)", tc.name, dir[0], dir[len(dir)-1], len(want))
			}
			if nb := len(dir) - 1; nb&(nb-1) != 0 || (tc.S <= singleBucketMax && nb != 1) || (tc.S > singleBucketMax && (2*nb < tc.S || nb >= tc.S)) || uint32(tc.n-1)>>shift >= uint32(nb) {
				t.Fatalf("%s: %d buckets, shift %d for S=%d n=%d", tc.name, nb, shift, tc.S, tc.n)
			}
			for b := 0; b+1 < len(dir); b++ {
				for _, w := range want[dir[b]:dir[b+1]] {
					if int(w>>shift) != b {
						t.Fatalf("%s: vertex %d filed under bucket %d, shift %d", tc.name, w, b, shift)
					}
				}
			}
		}
	}
}

// fanInGraph returns a graph on n vertices where vertex 0's in-neighbours
// are exactly fan, and each of those has the next few ids as its own
// in-neighbours, so walks from 0 have a chosen step-1 support and a
// spread-out step-2 one before dying.
func fanInGraph(n int, fan []uint32) *graph.Graph {
	b := graph.NewBuilder(n)
	addFanIn(b, n, 0, fan)
	return b.Build()
}

// addFanIn makes fan the in-neighbours of u, as fanInGraph does for 0.
func addFanIn(b *graph.Builder, n int, u uint32, fan []uint32) {
	for _, a := range fan {
		b.AddEdge(a, u)
		for k := uint32(1); k <= 3; k++ {
			if x := (a + k*7) % uint32(n); x != a {
				b.AddEdge(x, a)
			}
		}
	}
}

// checkWalkDist holds every step of wd to its contract: the support is
// strictly ascending, the directory is of the kind the support's density
// calls for, and lookup and prob agree with a binary search of the support
// for every vertex id below n, in it or not — which is also what catches a
// bit, rank or offset left over from the row's previous use.
func checkWalkDist(t *testing.T, label string, n uint32, wd *walkDist) {
	t.Helper()
	if wd.support(0) != 1 {
		t.Fatalf("%s: step 0 support %d, want 1", label, wd.support(0))
	}
	for step := 0; step < wd.T; step++ {
		vs := wd.verts[step]
		if !slices.IsSorted(vs) || len(slices.Compact(slices.Clone(vs))) != len(vs) {
			t.Fatalf("%s step %d: support not strictly ascending: %v", label, step, vs)
		}
		if len(vs) == 0 {
			if wd.dense(step) {
				t.Fatalf("%s step %d: empty step marked as a rank bitset", label, step)
			}
			continue
		}
		if dense := denseSupport(int(n), len(vs)); wd.dense(step) != dense {
			t.Fatalf("%s step %d: support %d of %d vertices, rank bitset: %v, want %v", label, step, len(vs), n, wd.dense(step), dense)
		}
		total := 0.0
		for w := uint32(0); w < n; w++ {
			want, found := slices.BinarySearch(vs, w)
			if !found {
				want = -1
			}
			if got := wd.lookup(step, w); got != want {
				t.Fatalf("%s step %d: lookup(%d) = %d, binary search = %d", label, step, w, got, want)
			}
			pr, ok := wd.prob(step, w)
			if ok != found {
				t.Fatalf("%s step %d: prob(%d) found=%v, binary search found=%v", label, step, w, ok, found)
			}
			if !found {
				continue
			}
			if pr != wd.mass(step, want) || pr <= 0 {
				t.Fatalf("%s step %d: prob(%d) = %v, mass = %v", label, step, w, pr, wd.mass(step, want))
			}
			total += pr
		}
		if total > 1+1e-9 {
			t.Fatalf("%s step %d: total mass %v", label, step, total)
		}
	}
}

// countKinds counts wd's nonempty steps by directory kind.
func countKinds(wd *walkDist) (dense, sparse int) {
	for t := 0; t < wd.T && wd.support(t) > 0; t++ {
		if wd.dense(t) {
			dense++
		} else {
			sparse++
		}
	}
	return dense, sparse
}

// stepKinds builds u's query-side distribution, as a query does, and
// counts its steps by directory kind.
func stepKinds(e *Snapshot, u uint32) (dense, sparse int) {
	s := e.getScratch()
	defer e.putScratch(s)
	var wd walkDist
	e.walkDistInto(&wd, s, u)
	return countKinds(&wd)
}

// requireBothKinds fails the test unless at least one of the queries us
// has a rank-bitset step and a bucket step in the same distribution, so a
// byte-identity table that passes has crossed the density threshold inside
// a query.
func requireBothKinds(t *testing.T, label string, e *Snapshot, us []uint32) {
	t.Helper()
	for _, u := range us {
		if dense, sparse := stepKinds(e, u); dense > 0 && sparse > 0 {
			return
		}
	}
	t.Fatalf("%s: no query of %v has both a dense and a sparse step", label, us)
}

// keptSteps counts wd's leading nonempty steps: the horizon, when wd is a
// query's trimmed distribution.
func keptSteps(wd *walkDist) int {
	dense, sparse := countKinds(wd)
	return dense + sparse
}

// heldBack reports whether the push that built wd left a vertex with
// in-edges unpushed before the last step because its share fell below
// 1/R.
func heldBack(e *Snapshot, wd *walkDist, R int) bool {
	for t := 0; t+1 < wd.T; t++ {
		for i, w := range wd.verts[t] {
			if k := e.g.InDegree(w); k > 0 && wd.mass(t, i)/float64(k) < 1/float64(R) {
				return true
			}
		}
	}
	return false
}

// planClass tells which of the two miss paths a query at u takes
// (builtEmpty or builtPushed), by the rule queryPlan applies, whether the
// horizon emptied a step the push had filled, and whether the share floor
// held a vertex back.
func planClass(e *Snapshot, u uint32) (builder int, trimmed, held bool) {
	s := e.getScratch()
	defer e.putScratch(s)
	if e.p.Strategy == CandidatesIndex && len(e.collectCandidates(s, u, nil, nil)) == 0 {
		return builtEmpty, false, false
	}
	e.walkDistInto(&s.wd, s, u)
	return builderOf(&s.wd), e.horizon(s.peak) < keptSteps(&s.wd), heldBack(e, &s.wd, e.p.RAlpha)
}

// requireAllClasses fails the test unless the queries us take every miss
// path between them: one whose distribution is pushed and — under
// CandidatesIndex, where candidates come first — one that has no
// candidate and builds nothing; unless the horizon cuts one pushed
// distribution and leaves another whole; and unless the share floor holds
// mass back in one and pushes all of another. A byte-identity table that
// passes has then crossed every decision the query side makes.
func requireAllClasses(t *testing.T, label string, e *Snapshot, us []uint32) {
	t.Helper()
	var seen [2]bool
	var trimmed, untrimmed, held, whole bool
	for _, u := range us {
		b, cut, h := planClass(e, u)
		seen[b] = true
		if b == builtPushed {
			trimmed, untrimmed = trimmed || cut, untrimmed || !cut
			held, whole = held || h, whole || !h
		}
	}
	if !seen[builtPushed] || (!seen[builtEmpty] && e.p.Strategy == CandidatesIndex) {
		t.Fatalf("%s: queries %v take the miss paths push=%v empty=%v, want both",
			label, us, seen[builtPushed], seen[builtEmpty])
	}
	if !trimmed || !untrimmed || !held || !whole {
		t.Fatalf("%s: queries %v have distributions trimmed=%v untrimmed=%v held-back=%v pushed-whole=%v, want all of them",
			label, us, trimmed, untrimmed, held, whole)
	}
}

// requireStepWork fails the test unless every step t of wd, pushed with a
// share floor of 1/R, relaxes at most R times the mass of step t−1, and
// returns the most one step relaxed, as a multiple of R. A step relaxes
// the in-degrees of the previous step's vertices whose share reaches 1/R.
func requireStepWork(t *testing.T, label string, e *Snapshot, wd *walkDist, R int) float64 {
	t.Helper()
	most := 0.0
	for step := 1; step < wd.T; step++ {
		work, mass := 0, 0.0
		for i, w := range wd.verts[step-1] {
			m := wd.mass(step-1, i)
			mass += m
			if k := e.g.InDegree(w); k > 0 && m/float64(k) >= 1/float64(R) {
				work += k
			}
		}
		if float64(work) > float64(R)*mass*(1+1e-12) {
			t.Fatalf("%s step %d: %d relaxations from mass %v", label, step, work, mass)
		}
		most = max(most, float64(work)/float64(R))
	}
	return most
}

// requireBelowExact fails the test unless every cell of pushed is at or
// below the same cell of exact, the unthresholded push from the same
// vertex, and returns how many cells pushed has and how many lie below.
func requireBelowExact(t *testing.T, label string, pushed, exact *walkDist) (cells, below int) {
	t.Helper()
	for step := 0; step < pushed.T; step++ {
		pushed.forEach(step, func(w uint32, p float64) {
			q, ok := exact.prob(step, w)
			if !ok || p > q {
				t.Fatalf("%s step %d vertex %d: pushed %v, exact %v (in support %v)", label, step, w, p, q, ok)
			}
			cells++
			if p < q {
				below++
			}
		})
	}
	return cells, below
}

func seq(lo, hi, stride uint32) []uint32 {
	var out []uint32
	for x := lo; x < hi; x += stride {
		out = append(out, x)
	}
	return out
}

// walkDist.lookup must agree with a binary search of the same support for
// every vertex id, at every step, for distributions pushed with the
// served share floor and without one — with supports on either side of the density threshold and at
// it, on graphs whose size is not a multiple of the bitset's word.
func TestWalkDistLookupMatchesBinarySearch(t *testing.T) {
	selfLoop := graph.NewBuilder(1)
	selfLoop.KeepSelfLoops = true
	selfLoop.AddEdge(0, 0)
	// On 3210 vertices (50 words and a 10-bit tail) a support is dense from
	// 101 vertices on.
	const nThr, thr = 3210, 101
	if denseSupport(nThr, thr-1) || !denseSupport(nThr, thr) {
		t.Fatalf("density threshold on %d vertices is not %d", nThr, thr)
	}
	ends := graph.NewBuilder(nThr)
	addFanIn(ends, nThr, 1600, append(seq(0, 21*150, 21), nThr-1))
	full := graph.NewBuilder(130)
	full.KeepSelfLoops = true
	addFanIn(full, 130, 0, seq(0, 130, 1))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		u    uint32
		// s1 is the step-1 support the graph was built to give, or -1.
		s1 int
	}{
		{"random", graph.ErdosRenyi(3000, 12, 5), 17, -1},
		{"powerlaw", graph.PreferentialAttachment(3000, 6, 0.4, 5), 2999, -1},
		{"clustered-low", fanInGraph(5000, seq(1, 200, 1)), 0, 199},
		{"single-bucket", fanInGraph(4096, seq(16, 32, 1)), 0, 16},
		{"with-last-vertex", fanInGraph(1000, append(seq(3, 900, 31), 999)), 0, 30},
		{"S=2", fanInGraph(777, []uint32{5, 776}), 0, 2},
		{"threshold-1", fanInGraph(nThr, seq(5, 5+31*(thr-1), 31)), 0, thr - 1},
		{"threshold", fanInGraph(nThr, seq(5, 5+31*thr, 31)), 0, thr},
		{"threshold+1", fanInGraph(nThr, seq(5, 5+31*(thr+1), 31)), 0, thr + 1},
		{"dense-with-0-and-last", ends.Build(), 1600, 151},
		{"full-graph", full.Build(), 0, 130},
		{"S=0-after-step-0", graph.NewBuilder(50).Build(), 49, 0},
		{"n=1", graph.NewBuilder(1).Build(), 0, 0},
		{"n=1-self-loop", selfLoop.Build(), 0, 1},
	} {
		p := DefaultParams()
		p.Seed = 3
		p.RAlpha = 4000
		e := New(tc.g, p)
		s := e.getScratch()
		n := uint32(tc.g.N())
		check := func(kind string, wd *walkDist) {
			t.Helper()
			checkWalkDist(t, tc.name+"/"+kind, n, wd)
			if tc.s1 >= 0 && wd.support(1) != tc.s1 {
				t.Fatalf("%s/%s: step 1 support %d, want %d", tc.name, kind, wd.support(1), tc.s1)
			}
		}
		var pushed, exact walkDist
		e.walkDistInto(&pushed, s, tc.u)
		check("pushed", &pushed)
		e.pushWalkDistInto(&exact, s, tc.u, 0)
		check("exact", &exact)
		// Reusing one walkDist across floors must not leak rows.
		e.walkDistInto(&exact, s, tc.u)
		check("pushed-after-exact", &exact)
		e.putScratch(s)
	}
}

// refPushSteps is the dense recurrence the push stands for: p₀ = e_u and
// p_t[x] = Σ_w p_{t−1}[w]/|In(w)| over x's out-neighbours w whose share
// p_{t−1}[w]/|In(w)| is at least minShare, each sum accumulated over w
// ascending and In(w) in CSR order. It spends n floats a step and never
// looks at a directory or a compact accumulator; in[t][x] marks the
// vertices that received mass at step t.
func refPushSteps(g *graph.Graph, T int, u uint32, minShare float64) (p [][]float64, in [][]bool) {
	n := g.N()
	cur, on := make([]float64, n), make([]bool, n)
	cur[u], on[u] = 1, true
	for step := 0; step < T; step++ {
		p, in = append(p, cur), append(in, on)
		next, non := make([]float64, n), make([]bool, n)
		for w := range cur {
			if nbrs := g.In(uint32(w)); on[w] && len(nbrs) > 0 {
				if share := cur[w] / float64(len(nbrs)); share >= minShare {
					for _, x := range nbrs {
						next[x] += share
						non[x] = true
					}
				}
			}
		}
		cur, on = next, non
	}
	return p, in
}

// refPush is refPushSteps as a refDist: per step the ascending support and
// its masses.
func refPush(g *graph.Graph, T int, u uint32, minShare float64) *refDist {
	p, in := refPushSteps(g, T, u, minShare)
	rd := &refDist{verts: make([][]uint32, T), probs: make([][]float64, T)}
	for step := range p {
		for w, ok := range in[step] {
			if ok {
				rd.verts[step] = append(rd.verts[step], uint32(w))
				rd.probs[step] = append(rd.probs[step], p[step][w])
			}
		}
	}
	return rd
}

// sameAsRef fails the test unless wd holds rd's supports and the bits of
// its masses at every step.
func sameAsRef(t *testing.T, label string, wd *walkDist, rd *refDist) {
	t.Helper()
	for step := range rd.verts {
		if !slices.Equal(wd.verts[step], rd.verts[step]) {
			t.Fatalf("%s step %d: support %v, reference %v", label, step, wd.verts[step], rd.verts[step])
		}
		for i, pr := range rd.probs[step] {
			if math.Float64bits(wd.mass(step, i)) != math.Float64bits(pr) {
				t.Fatalf("%s step %d vertex %d: mass %v, reference %v", label, step, rd.verts[step][i], wd.mass(step, i), pr)
			}
		}
	}
}

// pushFixtures are the graphs the push's own properties are checked on:
// a web-like one, a DAG with dangling vertices, a dense collaboration one
// and a preferential-attachment one whose hubs the share floor holds back.
func pushFixtures() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"copying":       graph.CopyingModel(1500, 6, 0.3, 21),
		"citation":      graph.CitationDAG(800, 4, 3),
		"collaboration": graph.Collaboration(60, 5, 0.8, 20, 11),
		"prefattach":    graph.PreferentialAttachment(2000, 8, 0.4, 5),
	}
}

// The push must produce, bit for bit, the dense recurrence it stands for
// (refPushSteps), with the served share floor of 1/RAlpha and without one,
// and again into a used walkDist on the same scratch: nothing of the
// previous vertex may survive.
func TestPushMatchesDenseReference(t *testing.T) {
	for name, g := range pushFixtures() {
		e := New(g, DefaultParams())
		n, T := g.N(), e.p.T
		s := e.getScratch()
		var wd, again walkDist
		kinds, held := [2]int{}, 0
		for u := uint32(0); u < uint32(n); u += 7 {
			for _, minShare := range []float64{1 / float64(e.p.RAlpha), 0} {
				label := fmt.Sprintf("%s u=%d floor %v", name, u, minShare)
				e.pushWalkDistInto(&wd, s, u, minShare)
				checkWalkDist(t, label, uint32(n), &wd)
				sameAsRef(t, label, &wd, refPush(g, T, u, minShare))
				e.pushWalkDistInto(&again, s, u, minShare)
				for step := 0; step < T; step++ {
					if !sameStep(&again, &wd, step) {
						t.Fatalf("%s step %d: a reused walkDist differs", label, step)
					}
					if wd.support(step) > 0 {
						kinds[map[bool]int{false: 0, true: 1}[wd.dense(step)]]++
					}
				}
				if minShare > 0 && heldBack(e.Snapshot, &wd, e.p.RAlpha) {
					held++
				}
			}
		}
		e.putScratch(s)
		if kinds[0] == 0 || kinds[1] == 0 || held == 0 {
			t.Fatalf("%s: %d sparse and %d dense steps, %d vertices held back", name, kinds[0], kinds[1], held)
		}
	}
}

// The share floor only ever withholds mass: every cell of the served push
// is at or below the same cell of the unthresholded one, and every vertex
// it reaches the unthresholded push reaches too — so a served score is
// never above the one the exact query side gives.
func TestPushNeverAboveExact(t *testing.T) {
	for name, g := range pushFixtures() {
		e := New(g, DefaultParams())
		s := e.getScratch()
		var pushed, exact walkDist
		cells, below := 0, 0
		for u := uint32(0); u < uint32(g.N()); u += 3 {
			e.walkDistInto(&pushed, s, u)
			e.pushWalkDistInto(&exact, s, u, 0)
			c, b := requireBelowExact(t, fmt.Sprintf("%s u=%d", name, u), &pushed, &exact)
			cells, below = cells+c, below+b
		}
		e.putScratch(s)
		t.Logf("%s: %d cells, %d below the exact mass", name, cells, below)
		if cells < 10000 || below == 0 {
			t.Fatalf("%s: %d cells, %d below the exact mass: nothing was compared", name, cells, below)
		}
	}
}

// The bound that replaces the relaxation budget: a pushed vertex w of mass
// m relaxes indeg(w) ≤ RAlpha·m in-edges, so step t relaxes at most RAlpha
// times the mass of step t−1 — the work of the walks it stands for — for
// every RAlpha.
func TestPushStepWorkWithinRAlpha(t *testing.T) {
	for name, g := range pushFixtures() {
		for _, R := range []int{10, 500, 10000} {
			p := DefaultParams()
			p.RAlpha = R
			e := New(g, p)
			s := e.getScratch()
			var wd walkDist
			most := 0.0
			for u := uint32(0); u < uint32(g.N()); u += 5 {
				e.walkDistInto(&wd, s, u)
				most = max(most, requireStepWork(t, fmt.Sprintf("%s R=%d u=%d", name, R, u), e.Snapshot, &wd, R))
			}
			e.putScratch(s)
			t.Logf("%s R=%d: the busiest step relaxes %.3g·R in-edges", name, R, most)
			if most == 0 {
				t.Fatalf("%s R=%d: nothing was pushed", name, R)
			}
		}
	}
}

// The deficit of a pushed cell — the exact mass less the served one —
// stays inside the radius the RAlpha sampled walks the push replaces were
// held to: ε = √(ln(2/δ)/2R) at δ = 0.05, which a sampled cell exceeded
// with probability up to δ and a pushed one never does. On the fixture the
// sampler was checked on (two hubs, two web vertices and one whose walks
// die), and on a preferential-attachment and a collaboration graph whose
// supports are wide.
func TestPushDeficitWithinHoeffdingRadius(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		us   []uint32
	}{
		{"copying", graph.CopyingModel(2000, 5, 0.3, 21), []uint32{5, 17, 35, 999, 1999}},
		{"prefattach", graph.PreferentialAttachment(4000, 10, 0.4, 2), seq(0, 4000, 211)},
		{"collaboration", graph.Collaboration(400, 5, 0.8, 20, 3), seq(0, 400, 23)},
	} {
		e := New(tc.g, DefaultParams())
		s := e.getScratch()
		R := e.p.RAlpha
		eps := math.Sqrt(math.Log(2/0.05) / (2 * float64(R)))
		var pushed, exact walkDist
		worst, cells := 0.0, 0
		for _, u := range tc.us {
			e.walkDistInto(&pushed, s, u)
			e.pushWalkDistInto(&exact, s, u, 0)
			for step := 0; step < e.p.T; step++ {
				exact.forEach(step, func(w uint32, p float64) {
					q, _ := pushed.prob(step, w)
					cells++
					worst = max(worst, p-q)
				})
			}
		}
		e.putScratch(s)
		t.Logf("%s: %d cells, largest deficit %.5f against ε = %.5f", tc.name, cells, worst, eps)
		if worst > eps {
			t.Fatalf("%s: a pushed cell is %v below the exact mass, more than ε = %v", tc.name, worst, eps)
		}
		if cells < 1000 {
			t.Fatalf("%s: %d cells: nothing was compared", tc.name, cells)
		}
	}
}

// One walkDist is rebuilt query after query (scratch.wd). A step's row
// that held a rank bitset must come back clean as bucket offsets and the
// other way round, with the share floor and without: no stale bit, rank
// or offset.
func TestWalkDistReuseAcrossKinds(t *testing.T) {
	const n = 3210
	b := graph.NewBuilder(n)
	wide, narrow, source := uint32(0), uint32(1), uint32(3)
	addFanIn(b, n, wide, seq(2, 2+300*10, 10)) // step 1: 300 vertices, dense
	addFanIn(b, n, narrow, seq(9, 9+20*150, 150))
	// source has no in-neighbour: its step 1 is empty, and must not keep
	// the kind the row had before.
	p := DefaultParams()
	p.Seed = 3
	p.RAlpha = 6000
	e := New(b.Build(), p)
	s := e.getScratch()
	defer e.putScratch(s)
	var wd walkDist
	for i, st := range []struct {
		u     uint32
		floor bool
	}{
		{wide, true}, {narrow, true}, {wide, true},
		{narrow, false}, {wide, false}, {narrow, true}, {wide, false}, {wide, true},
		{source, true}, {wide, false}, {source, false},
	} {
		if st.floor {
			e.walkDistInto(&wd, s, st.u)
		} else {
			e.pushWalkDistInto(&wd, s, st.u, 0)
		}
		if wd.dense(1) != (st.u == wide) {
			t.Fatalf("round %d (u=%d): step 1 support %d, rank bitset: %v", i, st.u, wd.support(1), wd.dense(1))
		}
		checkWalkDist(t, "round "+itoa(i), n, &wd)
	}
}

// refDist is the query-side distribution as the engine stored it before
// the bucket directory: per step an ascending support and eagerly
// evaluated float64 masses. refPush builds it from the dense recurrence,
// refDot is the scoring dot product with its two branches, and
// refOneSided the step-synchronous kernel — each looks a tally term up by
// binary search (or merge join), so together they are the reference the
// directory-indexed kernels must match bit for bit.
type refDist struct {
	verts [][]uint32
	probs [][]float64
}

// cut returns rd with the steps from h on emptied: the reference of a
// query side whose horizon is h (TestHorizonTailBound holds h itself to
// its definition).
func (rd *refDist) cut(h int) *refDist {
	out := &refDist{verts: slices.Clone(rd.verts), probs: slices.Clone(rd.probs)}
	for t := h; t < len(out.verts); t++ {
		out.verts[t], out.probs[t] = nil, nil
	}
	return out
}

// refQuerySide is the reference of the distribution a query at u pushes:
// refPush at the share floor of 1/RAlpha.
func refQuerySide(e *Snapshot, u uint32) *refDist {
	return refPush(e.g, e.p.T, u, 1/float64(e.p.RAlpha))
}

func refDot(e *Snapshot, rd *refDist, off []int32, verts []uint32, counts []uint16, invR float64, maxStep int) (sigma float64, searched bool) {
	ct := 1.0
	for t := 0; t < maxStep; t++ {
		if t > 0 {
			ct *= e.p.C
		}
		lo, hi := off[t], off[t+1]
		if lo == hi {
			break
		}
		vs := rd.verts[t]
		if len(vs) == 0 {
			break
		}
		ps := rd.probs[t]
		if len(vs) > 16*int(hi-lo) {
			searched = true
			for j := lo; j < hi; j++ {
				c := counts[j]
				if c == 0 {
					continue
				}
				w := verts[j]
				if i, ok := slices.BinarySearch(vs, w); ok {
					sigma += ct * e.p.dval(w) * ps[i] * float64(c) * invR
				}
			}
			continue
		}
		i := 0
		for j := lo; j < hi; j++ {
			c := counts[j]
			if c == 0 {
				continue
			}
			w := verts[j]
			for i < len(vs) && vs[i] < w {
				i++
			}
			if i == len(vs) {
				break
			}
			if vs[i] == w {
				sigma += ct * e.p.dval(w) * ps[i] * float64(c) * invR
			}
		}
	}
	return sigma, searched
}

func refOneSided(e *Snapshot, s *scratch, rd *refDist, v uint32, R int, r *rng.Source) float64 {
	vpos := s.walkBuf2(R)
	lane := s.laneBuf(R)
	resetWalks(vpos, v)
	sigma, ct, invR, alive := 0.0, 1.0, 1.0/float64(R), R
	for t := 0; t < e.p.T; t++ {
		if t > 0 {
			alive = e.wt.StepWalks(r, vpos, lane)
			ct *= e.p.C
		}
		if alive == 0 || len(rd.verts[t]) == 0 {
			break
		}
		s.beginTally()
		for _, w := range vpos {
			if w != Dead {
				s.tallyCount(w)
			}
		}
		for _, w := range s.touched {
			if i, ok := slices.BinarySearch(rd.verts[t], w); ok {
				sigma += ct * e.p.dval(w) * rd.probs[t][i] * float64(s.cnt[w]) * invR
			}
		}
	}
	return sigma
}

// singlePairOneSided estimates s⁽ᵀ⁾(u, v) using a precomputed u-side walk
// distribution (typically from the query's RAlpha = 10000 Algorithm 2
// walks) and R fresh walks from v:
//
//	ŝ = Σ_t cᵗ Σ_w p̂_u,t(w)·D_ww·(count_v,t(w)/R)
//
// With the u-side effectively exact, only v-side sampling noise remains,
// roughly halving the estimator variance per candidate at no extra cost —
// the walks funding p̂ were already performed for the L1 bound.
//
// The v-side positions are tallied through the scratch's epoch marks and
// looked up once per distinct position through wd's directory
// (walkDist.lookup). The engine itself scores candidates through
// scoreLanes and the tally cache; this step-synchronous kernel remains as
// the estimator the concentration, single-pair and byte-identity tests
// reason about.
func (e *Snapshot) singlePairOneSided(s *scratch, wd *walkDist, v uint32, R int, r *rng.Source) float64 {
	vpos := s.walkBuf2(R)
	lane := s.laneBuf(R)
	resetWalks(vpos, v)
	sigma := 0.0
	ct := 1.0
	invR := 1.0 / float64(R)
	alive := R
	for t := 0; t < e.p.T; t++ {
		if t > 0 {
			alive = e.wt.StepWalks(r, vpos, lane)
			ct *= e.p.C
		}
		if alive == 0 || t >= wd.T || wd.support(t) == 0 {
			break
		}
		s.beginTally()
		for _, w := range vpos {
			if w != Dead {
				s.tallyCount(w)
			}
		}
		// Distinct v-side positions in first-seen order: deterministic for
		// a fixed walk stream, independent of everything else.
		for _, w := range s.touched {
			if i := wd.lookup(t, w); i >= 0 {
				sigma += ct * e.p.dval(w) * wd.mass(t, i) * float64(s.cnt[w]) * invR
			}
		}
	}
	return sigma
}

// refCandWalks draws candidate v's walks [0, R), T−1 steps each, into pos
// (row t at pos[t*R:], one column per walk): one walk at a time, each
// from a generator of its own seeded walkSeed(candSeed(v), i) — the
// definition of the candidate streams, with none of candWalks' lanes,
// re-seeding or cuts.
func refCandWalks(e *Snapshot, v uint32, R int, pos []uint32) {
	for i := 0; i < R; i++ {
		e.wt.WalkStrided(rng.New(walkSeed(e.candSeed(v), i)), v, e.p.T-1, R, pos[i:])
	}
}

// refScores returns the rough and full reference estimates of candidate v,
// over the walks refCandWalks draws.
func refScores(e *Snapshot, s *scratch, rd *refDist, v uint32) (rough, full float64, searched bool) {
	R, Rr := e.p.RScore, e.p.RRough
	refCandWalks(e, v, R, s.tposBuf(e.p.T, R))
	rsteps := e.buildFullTally(s, v, R, Rr, R)
	rough, s1 := refDot(e, rd, s.tallyOff, s.tallyV, s.tallyRcnt, 1/float64(Rr), rsteps)
	full, s2 := refDot(e, rd, s.tallyOff, s.tallyV, s.tallyCnt, 1/float64(R), e.p.T)
	return rough, full, s1 || s2
}

// On a preferential-attachment graph with the default RAlpha the query
// supports are far more than 16× a candidate tally — the regime the old
// per-term binary search served. Every score TopK, Threshold and the
// one-sided single-pair kernel produce there must carry the reference's
// bits, cache on and off, at one and two workers.
func TestWideSupportByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four engines on a 5000-vertex graph")
	}
	g := graph.PreferentialAttachment(5000, 10, 0.4, 3)
	queries := []uint32{4999, 1234, 3100, 3777, 600}
	const theta = 0.02
	var want [][]Scored // TopK per query, from the first configuration
	for _, cfg := range []struct {
		cache   int64
		workers int
	}{{0, 1}, {0, 2}, {64 << 20, 1}, {64 << 20, 2}} {
		p := DefaultParams()
		p.Seed = 9
		p.Workers = cfg.workers
		p.CacheBytes = cfg.cache
		if cfg.cache == 0 {
			p.PrologBytes = -1
		}
		e := Build(g, p)
		label := "cache=" + itoa(int(cfg.cache)) + " workers=" + itoa(cfg.workers)
		requireBothKinds(t, label, e.Snapshot, queries)
		s := e.getScratch()
		searched, widest, checked := false, 0, 0
		for qi, u := range queries {
			// The reference push, whole for the single-pair kernel and cut at
			// the plan's horizon for the queries.
			whole := refQuerySide(e.Snapshot, u)
			rd := whole.cut(keptSteps(e.queryPlan(s, u).wd))
			for _, vs := range rd.verts {
				widest = max(widest, len(vs))
			}
			for pass := 0; pass < 2; pass++ { // cold, then from the caches
				top := e.TopK(u, 20)
				checked += len(top)
				for _, sc := range top {
					_, full, sr := refScores(e.Snapshot, s, rd, sc.V)
					searched = searched || sr
					if math.Float64bits(sc.Score) != math.Float64bits(full) {
						t.Fatalf("%s u=%d v=%d: TopK score %x, reference %x", label, u, sc.V, math.Float64bits(sc.Score), math.Float64bits(full))
					}
				}
				if len(want) == qi {
					want = append(want, top)
				}
				sameResults(t, label+" u="+itoa(int(u)), top, want[qi])

				// Threshold keeps the floor at theta, so the reference
				// answer is a plain filter over the candidate set.
				var ref []Scored
				for _, b := range slices.Clone(e.queryPlan(s, u).cands) {
					if b.ub < theta {
						continue
					}
					rough, full, _ := refScores(e.Snapshot, s, rd, b.v)
					if rough >= 0.3*theta && full >= theta {
						ref = append(ref, Scored{b.v, full})
					}
				}
				sortScoredDesc(ref)
				sameResults(t, label+" threshold u="+itoa(int(u)), e.Threshold(u, theta), ref)
			}

			// One-sided single pair, against the engine's own distribution.
			e.walkDistInto(&s.wd, s, u)
			for _, v := range []uint32{0, 1, 9, u / 2} {
				s.rng.Seed(e.candSeed(v))
				got := e.singlePairOneSided(s, &s.wd, v, e.p.RScore, &s.rng)
				s.rng.Seed(e.candSeed(v))
				ref := refOneSided(e.Snapshot, s, whole, v, e.p.RScore, &s.rng)
				if math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("%s u=%d v=%d: one-sided %x, reference %x", label, u, v, math.Float64bits(got), math.Float64bits(ref))
				}
			}
		}
		e.putScratch(s)
		if !searched || widest < 1200 || checked < 50 {
			t.Fatalf("%s: widest support %d, search branch taken: %v, %d scores compared — the graph no longer reaches the wide regime", label, widest, searched, checked)
		}
	}
}

// tails evaluates tail(h) = Σ_{t=h}^{T−1} cᵗ·max_w D_ww·p_t(w) of wd for
// h = 0..T as the definition reads, from the stored supports and masses.
func tails(e *Snapshot, wd *walkDist) []float64 {
	tail := make([]float64, wd.T+1)
	ct := 1.0
	for t := 0; t < wd.T; t++ {
		wd.forEach(t, func(w uint32, pr float64) { tail[t] = max(tail[t], e.p.dval(w)*pr) })
		tail[t] *= ct
		ct *= e.p.C
	}
	for h := wd.T - 1; h >= 0; h-- {
		tail[h] += tail[h+1]
	}
	return tail
}

// sameStep reports whether step t of a and b agree in every stored word.
func sameStep(a, b *walkDist, t int) bool {
	return slices.Equal(a.verts[t], b.verts[t]) && slices.Equal(a.dir[t], b.dir[t]) &&
		slices.Equal(a.massw[t], b.massw[t]) && a.shift[t] == b.shift[t]
}

// The horizon, as a property. For pushed distributions, with the served
// share floor and without one, under the default D and a custom one: h is the smallest h ≥ 1 whose tail is
// within c^T·maxD, the trimmed distribution is the builder's up to h and
// empty from there, and trimming again changes nothing. And the promise
// that rests on it: every candidate of every query, scored by the served
// kernels over one set of walk positions against the query's distribution
// and against the whole one, loses no more than tail(h) and gains nothing —
// refined estimate and rough prefix alike.
func TestHorizonTailBound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds eight engines")
	}
	fixtures := planFixtures()
	fixtures["pa-wide"] = graph.PreferentialAttachment(5000, 10, 0.4, 3)
	minQueries := 300
	if raceEnabled {
		// One goroutine, nothing for the race detector to see.
		minQueries = 12
	}
	for name, g := range fixtures {
		for _, customD := range []bool{false, true} {
			n := uint32(g.N())
			p := DefaultParams()
			p.Seed = 3
			p.Workers = 1
			p.PrologBytes = -1
			maxD := 1 - p.C
			if customD {
				p.D = make([]float64, n)
				for w := range p.D {
					p.D[w] = (1 - p.C) * (0.6 + 0.1*float64(w%7))
				}
				maxD = slices.Max(p.D)
			}
			label := fmt.Sprintf("%s customD=%v", name, customD)
			e := Build(g, p).Snapshot
			if want := math.Pow(p.C, float64(p.T)) * maxD; math.Abs(e.tailTol-want) > 1e-15 {
				t.Fatalf("%s: tolerance %v, want c^T·maxD = %v", label, e.tailTol, want)
			}
			qs, s := e.getScratch(), e.getScratch()
			R, Rr := e.p.RScore, e.p.RRough
			var whole walkDist
			var queries, scored, cutBy int
			worst := 0.0
			// horizonOf builds whole, checks its h against the definition and
			// the trim of a copy against the original, and returns h with
			// tail(h).
			horizonOf := func(u uint32, build func(wd *walkDist)) (int, float64) {
				build(&whole)
				tail := tails(e, &whole)
				h := e.horizon(slices.Clone(s.peak))
				if h < 1 || tail[h] > e.tailTol || (h > 1 && tail[h-1] <= e.tailTol) {
					t.Fatalf("%s u=%d: horizon %d, tails %v against %v", label, u, h, tail, e.tailTol)
				}
				cut := &newPrologEntry(u, &whole, nil).val.wd
				for pass := 0; pass < 2; pass++ {
					cut.trim(h)
					for step := 0; step < cut.T; step++ {
						if step < h && !sameStep(cut, &whole, step) || step >= h && (cut.support(step) != 0 || len(cut.dir[step])+len(cut.massw[step]) != 0 || cut.dense(step)) {
							t.Fatalf("%s u=%d: step %d of the distribution trimmed at %d (pass %d)", label, u, step, h, pass)
						}
					}
				}
				if keptSteps(cut) != h {
					t.Fatalf("%s u=%d: %d steps kept at horizon %d", label, u, keptSteps(cut), h)
				}
				return h, tail[h]
			}
			for _, u := range seq(0, n, max(1, 2*n/uint32(3*minQueries))) {
				if queries == minQueries {
					break
				}
				if len(e.collectCandidates(qs, u, nil, nil)) == 0 {
					continue
				}
				// The query's own distribution, trimmed.
				pl := e.queryPlan(qs, u)
				h := keptSteps(pl.wd)
				// The push without a floor, then the query's so that whole
				// stays its untrimmed distribution. The unthresholded push
				// relaxes every edge of a social graph at every step: every
				// fourth query.
				if queries%4 == 0 {
					horizonOf(u, func(wd *walkDist) { e.pushWalkDistInto(wd, s, u, 0) })
				}
				hq, bound := horizonOf(u, func(wd *walkDist) { e.walkDistInto(wd, s, u) })
				if h != hq {
					t.Fatalf("%s u=%d: plan keeps %d steps of a push whose horizon is %d", label, u, h, hq)
				}
				for step := 0; step < h; step++ {
					if !sameStep(pl.wd, &whole, step) {
						t.Fatalf("%s u=%d: step %d of the plan's distribution is not the builder's", label, u, step)
					}
				}
				queries++
				if h < keptSteps(&whole) {
					cutBy++
				}
				bound += 1e-15 // rounding of the two sums compared
				for i, c := range pl.cands {
					v := c.v
					e.simulateCandWalks(s, v, R)
					served := e.dotPositions(s, pl.wd, v, s.tpos, R, R, 1/float64(R))
					full := e.dotPositions(s, &whole, v, s.tpos, R, R, 1/float64(R))
					rough := e.dotPositions(s, pl.wd, v, s.tpos, R, Rr, 1/float64(Rr))
					roughFull := e.dotPositions(s, &whole, v, s.tpos, R, Rr, 1/float64(Rr))
					if i%8 == 0 {
						// The cached path's kernel over the tally of the same walks.
						rsteps := e.buildFullTally(s, v, R, Rr, R)
						st := e.dotTally(pl.wd, s.tallyOff, s.tallyV, s.tallyCnt, 1/float64(R), e.p.T)
						rt := e.dotTally(pl.wd, s.tallyOff, s.tallyV, s.tallyRcnt, 1/float64(Rr), rsteps)
						if math.Float64bits(st) != math.Float64bits(served) || math.Float64bits(rt) != math.Float64bits(rough) {
							t.Fatalf("%s u=%d v=%d: tally kernel %v (rough %v), position kernel %v (rough %v)", label, u, v, st, rt, served, rough)
						}
					}
					for _, d := range []float64{full - served, roughFull - rough} {
						if d < 0 || d > bound {
							t.Fatalf("%s u=%d v=%d: whole − served = %v (refined %v − %v, rough %v − %v), want within [0, %v]", label, u, v, d, full, served, roughFull, rough, bound)
						}
						worst = max(worst, d)
					}
					scored++
				}
			}
			e.putScratch(qs)
			e.putScratch(s)
			t.Logf("%s: %d queries (%d cut), %d candidates, largest loss %.3g of %.3g",
				label, queries, cutBy, scored, worst, e.tailTol)
			if queries < minQueries || cutBy < minQueries/4 || scored < 10*minQueries || worst == 0 {
				t.Fatalf("%s: too few queries, cuts or candidates to mean anything", label)
			}
		}
	}
}
