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
			wd.reset(1, true)
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

// stepKinds samples u's query-side distribution, as a sampled query does,
// and counts its steps by directory kind.
func stepKinds(e *Snapshot, u uint32) (dense, sparse int) {
	s := e.getScratch()
	defer e.putScratch(s)
	var wd walkDist
	e.sampleWalkDistInto(&wd, s, u, e.p.RAlpha, e.queryRNG(u))
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

// planClass tells which of the three miss paths a query at u takes
// (builtEmpty, builtExact or builtSampled), by the rule queryPlan applies,
// and whether the horizon emptied a step the builder had filled.
func planClass(e *Snapshot, u uint32) (builder int, trimmed bool) {
	s := e.getScratch()
	defer e.putScratch(s)
	if e.p.Strategy == CandidatesIndex && len(e.collectCandidates(s, u, nil, nil)) == 0 {
		return builtEmpty, false
	}
	e.walkDistInto(&s.wd, s, u)
	return builderOf(&s.wd), e.horizon(s.peak) < keptSteps(&s.wd)
}

// requireAllClasses fails the test unless the queries us take every miss
// path between them: one whose distribution is pushed exactly, one that
// falls back to the sampled walks and — under CandidatesIndex, where
// candidates come first — one that has no candidate and builds nothing;
// and unless the horizon cuts a distribution of either builder and leaves
// one whole. A byte-identity table that passes has then crossed all three
// decisions.
func requireAllClasses(t *testing.T, label string, e *Snapshot, us []uint32) {
	t.Helper()
	var seen [3]bool
	var trimmed [3]bool
	untrimmed := false
	for _, u := range us {
		b, cut := planClass(e, u)
		seen[b] = true
		trimmed[b] = trimmed[b] || cut
		untrimmed = untrimmed || (b != builtEmpty && !cut)
	}
	if !seen[builtExact] || !seen[builtSampled] || (!seen[builtEmpty] && e.p.Strategy == CandidatesIndex) {
		t.Fatalf("%s: queries %v take the miss paths exact=%v sampled=%v empty=%v, want all of them",
			label, us, seen[builtExact], seen[builtSampled], seen[builtEmpty])
	}
	if !trimmed[builtExact] || !trimmed[builtSampled] || !untrimmed {
		t.Fatalf("%s: queries %v have distributions trimmed-exact=%v trimmed-sampled=%v untrimmed=%v, want all of them",
			label, us, trimmed[builtExact], trimmed[builtSampled], untrimmed)
	}
}

// pushWork counts the in-edges an exact propagation from u relaxes over
// all its steps: the least budget exactWalkDistInto succeeds with.
func pushWork(e *Snapshot, s *scratch, u uint32) int {
	var wd walkDist
	if !e.exactWalkDistInto(&wd, s, u, math.MaxInt) {
		panic("unbounded push refused")
	}
	work := 0
	for t := 0; t+1 < wd.T; t++ {
		for _, w := range wd.verts[t] {
			work += len(e.g.In(w))
		}
	}
	return work
}

func seq(lo, hi, stride uint32) []uint32 {
	var out []uint32
	for x := lo; x < hi; x += stride {
		out = append(out, x)
	}
	return out
}

// walkDist.lookup must agree with a binary search of the same support for
// every vertex id, at every step, for distributions produced by both
// builders — with supports on either side of the density threshold and at
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
		var sampled, exact walkDist
		e.sampleWalkDistInto(&sampled, s, tc.u, e.p.RAlpha, e.queryRNG(tc.u))
		check("sampled", &sampled)
		if !e.exactWalkDistInto(&exact, s, tc.u, math.MaxInt) {
			t.Fatalf("%s: exact propagation refused", tc.name)
		}
		check("exact", &exact)
		// Reusing one walkDist across encodings must not leak rows.
		e.sampleWalkDistInto(&exact, s, tc.u, e.p.RAlpha, e.queryRNG(tc.u))
		check("sampled-after-exact", &exact)
		e.putScratch(s)
	}
}

// The exact push must produce, bit for bit, the dense recurrence it stands
// for: p₀ = e_u and p_t[x] = Σ_w p_{t−1}[w]/|In(w)| over x's out-neighbours
// w, each sum accumulated over w ascending and In(w) in CSR order. The
// reference spends n floats a step and never looks at a directory or a
// compact accumulator. A vertex that needs W relaxations is refused at a
// budget of W−1 and served at W and W+1.
func TestPushMatchesDenseReference(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"copying":       graph.CopyingModel(1500, 6, 0.3, 21),
		"citation":      graph.CitationDAG(800, 4, 3),
		"collaboration": graph.Collaboration(60, 5, 0.8, 20, 11),
	} {
		e := New(g, DefaultParams())
		n, T := g.N(), e.p.T
		s := e.getScratch()
		var wd, again walkDist
		kinds, refused, served := [2]int{}, 0, 0
		for u := uint32(0); u < uint32(n); u += 7 {
			work := pushWork(e.Snapshot, s, u)
			for _, budget := range []int{max(work-1, 0), work, work + 1} {
				if got := e.exactWalkDistInto(&wd, s, u, budget); got != (budget >= work) {
					t.Fatalf("%s u=%d: %d relaxations under a budget of %d: served %v", name, u, work, budget, got)
				}
			}
			if work > e.p.pushBudget() {
				refused++
			} else {
				served++
			}
			checkWalkDist(t, fmt.Sprintf("%s u=%d", name, u), uint32(n), &wd)
			cur, in := make([]float64, n), make([]bool, n)
			cur[u], in[u] = 1, true
			for step := 0; step < T; step++ {
				i := 0
				for w := range cur {
					if !in[w] {
						continue
					}
					if i >= wd.support(step) || wd.verts[step][i] != uint32(w) || math.Float64bits(wd.mass(step, i)) != math.Float64bits(cur[w]) {
						t.Fatalf("%s u=%d step %d: reference has %v at vertex %d, support index %d of %v disagrees", name, u, step, cur[w], w, i, wd.verts[step])
					}
					i++
				}
				if i != wd.support(step) {
					t.Fatalf("%s u=%d step %d: support of %d, reference %d", name, u, step, wd.support(step), i)
				}
				if i > 0 {
					kinds[map[bool]int{false: 0, true: 1}[wd.dense(step)]]++
				}
				next, nin := make([]float64, n), make([]bool, n)
				for w := range cur {
					if nbrs := g.In(uint32(w)); in[w] && len(nbrs) > 0 {
						share := cur[w] / float64(len(nbrs))
						for _, x := range nbrs {
							next[x] += share
							nin[x] = true
						}
					}
				}
				cur, in = next, nin
			}
			// And again into a used walkDist on the same scratch: nothing
			// of the previous vertex may survive.
			if !e.exactWalkDistInto(&again, s, u, work) {
				t.Fatalf("%s u=%d: second push refused", name, u)
			}
			for step := 0; step < T; step++ {
				if !slices.Equal(again.verts[step], wd.verts[step]) || !slices.Equal(again.massw[step], wd.massw[step]) {
					t.Fatalf("%s u=%d step %d: a reused walkDist differs", name, u, step)
				}
			}
		}
		e.putScratch(s)
		if kinds[0] == 0 || kinds[1] == 0 || refused == 0 || served == 0 {
			t.Fatalf("%s: %d sparse and %d dense steps, %d vertices within the served budget and %d past it", name, kinds[0], kinds[1], served, refused)
		}
	}
}

// One walkDist is rebuilt query after query (scratch.wd). A step's row
// that held a rank bitset must come back clean as bucket offsets and the
// other way round, across both builders: no stale bit, rank or offset.
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
		u       uint32
		sampled bool
	}{
		{wide, true}, {narrow, true}, {wide, true},
		{narrow, false}, {wide, false}, {narrow, true}, {wide, false}, {wide, true},
		{source, true}, {wide, false}, {source, false},
	} {
		if st.sampled {
			e.sampleWalkDistInto(&wd, s, st.u, e.p.RAlpha, e.queryRNG(st.u))
		} else if !e.exactWalkDistInto(&wd, s, st.u, math.MaxInt) {
			t.Fatalf("round %d: exact propagation refused", i)
		}
		if wd.dense(1) != (st.u == wide) || wd.sampled != st.sampled {
			t.Fatalf("round %d (u=%d): step 1 support %d, rank bitset: %v, sampled: %v", i, st.u, wd.support(1), wd.dense(1), wd.sampled)
		}
		checkWalkDist(t, "round "+itoa(i), n, &wd)
	}
}

// refDist is the query-side distribution as the engine stored it before
// the bucket directory: per step an ascending support and eagerly
// evaluated float64 masses. refSample is that sampler, refDot the scoring
// dot product with its two branches, and refOneSided the step-synchronous
// kernel — each looks a tally term up by binary search (or merge join), so
// together they are the reference the directory-indexed kernels must
// match bit for bit.
type refDist struct {
	verts [][]uint32
	probs [][]float64
}

func refSample(e *Snapshot, s *scratch, u uint32) *refDist {
	return refSampleFrom(e, s, u, e.queryRNG(u))
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

// refSampleFrom is refSample drawing from r. It steps all R positions at
// every step, dead ones included — the loop sampleWalkDistInto ran before
// it compacted to the live walks.
func refSampleFrom(e *Snapshot, s *scratch, u uint32, r *rng.Source) *refDist {
	T, R := e.p.T, e.p.RAlpha
	rd := &refDist{verts: make([][]uint32, T), probs: make([][]float64, T)}
	pos := s.walkBuf(R)
	lane := s.laneBuf(R)
	resetWalks(pos, u)
	invR := 1.0 / float64(R)
	for t := 0; t < T; t++ {
		if t > 0 {
			e.wt.StepWalks(r, pos, lane)
		}
		s.beginTally()
		for _, w := range pos {
			if w != Dead {
				s.tallyCount(w)
			}
		}
		slices.Sort(s.touched)
		for _, w := range s.touched {
			rd.verts[t] = append(rd.verts[t], w)
			rd.probs[t] = append(rd.probs[t], float64(s.cnt[w])*invR)
		}
	}
	return rd
}

// refGammaInto is computeGammaInto as it was before it compacted to the
// live walks: every position tested at every step.
func refGammaInto(e *Snapshot, v uint32, R int, r *rng.Source, s *scratch, out []float32) {
	pos := s.walkBuf(R)
	lane := s.laneBuf(R)
	resetWalks(pos, v)
	invR2 := 1.0 / (float64(R) * float64(R))
	for t := 0; t < e.p.T; t++ {
		if t > 0 {
			e.wt.StepWalks(r, pos, lane)
		}
		s.beginTally()
		for _, w := range pos {
			if w != Dead {
				s.tallyCount(w)
			}
		}
		mu := 0.0
		for _, w := range pos {
			if w != Dead {
				mu += e.p.dval(w) * float64(s.cnt[w]) * invR2
			}
		}
		out[t] = float32(math.Sqrt(mu))
	}
}

func rngState(r *rng.Source) [4]uint64 {
	s0, s1, s2, s3 := r.State()
	return [4]uint64{s0, s1, s2, s3}
}

// Dead walks leave the step batch (scratch.tallyLive). They drew nothing
// while they were in it, so the sampled distribution, the γ table and the
// generator state after either call must be what the uncompacted loops
// produce — on a graph where most walks die early, one where none do, and
// the degenerate ones.
func TestDeadWalkCompactionChangesNothing(t *testing.T) {
	ring := graph.NewBuilder(7)
	for v := uint32(0); v < 7; v++ {
		ring.AddEdge(v, (v+1)%7)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"web", graph.CopyingModel(3000, 8, 0.3, 1)},
		{"social", graph.PreferentialAttachment(2000, 10, 0.4, 1)},
		{"ring", ring.Build()},
		{"edgeless", graph.NewBuilder(5).Build()},
	} {
		p := DefaultParams()
		p.Seed = 6
		p.RAlpha = 3000 // more than one StepLane chunk
		e := New(tc.g, p)
		s := e.getScratch()
		n := uint32(tc.g.N())
		died := false
		for u := uint32(0); u < n; u += 1 + n/97 {
			r, rr := e.queryRNG(u), e.queryRNG(u)
			var wd walkDist
			e.sampleWalkDistInto(&wd, s, u, e.p.RAlpha, r)
			rd := refSampleFrom(e.Snapshot, s, u, rr)
			for step := 0; step < e.p.T; step++ {
				if !slices.Equal(wd.verts[step], rd.verts[step]) {
					t.Fatalf("%s u=%d step %d: support %v, reference %v", tc.name, u, step, wd.verts[step], rd.verts[step])
				}
				walks := 0
				for i := range wd.verts[step] {
					walks += int(wd.massw[step][i])
					if math.Float64bits(wd.mass(step, i)) != math.Float64bits(rd.probs[step][i]) {
						t.Fatalf("%s u=%d step %d vertex %d: mass %v, reference %v", tc.name, u, step, wd.verts[step][i], wd.mass(step, i), rd.probs[step][i])
					}
				}
				died = died || (walks > 0 && walks < e.p.RAlpha)
			}
			if rngState(r) != rngState(rr) {
				t.Fatalf("%s u=%d: generator state differs after sampling", tc.name, u)
			}

			r.Seed(e.vertexSeed(saltGamma, u))
			rr.Seed(e.vertexSeed(saltGamma, u))
			got, want := make([]float32, e.p.T), make([]float32, e.p.T)
			e.computeGammaInto(u, e.p.RGamma, r, s, got)
			refGammaInto(e.Snapshot, u, e.p.RGamma, rr, s, want)
			for step := range got {
				if math.Float32bits(got[step]) != math.Float32bits(want[step]) {
					t.Fatalf("%s v=%d: γ(·,%d) = %v, reference %v", tc.name, u, step, got[step], want[step])
				}
			}
			if rngState(r) != rngState(rr) {
				t.Fatalf("%s v=%d: generator state differs after γ", tc.name, u)
			}
		}
		e.putScratch(s)
		if tc.name == "web" && !died {
			t.Fatal("web: no sampled step had a mix of live and dead walks")
		}
	}
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

// refScores returns the rough and full reference estimates of candidate v.
func refScores(e *Snapshot, s *scratch, rd *refDist, v uint32) (rough, full float64, searched bool) {
	R, Rr := e.p.RScore, e.p.RRough
	s.rng.Seed(e.candSeed(v))
	e.simulateCandWalks(s, v, R)
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
			// The reference sampler's distribution, whole for the single-pair
			// kernel and cut at the plan's horizon for the queries.
			whole := refSample(e.Snapshot, s, u)
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
			e.sampleWalkDistInto(&s.wd, s, u, e.p.RAlpha, e.queryRNG(u))
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
		if !searched || widest < 1600 || checked < 50 {
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

// The horizon, as a property. For distributions from both builders, under
// the default D and a custom one: h is the smallest h ≥ 1 whose tail is
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
			var queries, scored, cutBy [2]int
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
				cut := &newPrologEntry(u, &whole).val.wd
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
				if queries[0]+queries[1] == minQueries {
					break
				}
				if len(e.collectCandidates(qs, u, nil, nil)) == 0 {
					continue
				}
				// The query's own: the builder the budget picks, trimmed.
				pl := e.queryPlan(qs, u)
				b, h := builderOf(pl.wd), keptSteps(pl.wd)
				// Both builders, the query's last so that whole stays its
				// untrimmed distribution. The unbounded push of a vertex the
				// budget sends to the walks relaxes every edge of a social
				// graph at every step: every fourth of those.
				sample := func(wd *walkDist) { e.sampleWalkDistInto(wd, s, u, e.p.RAlpha, e.queryRNG(u)) }
				push := func(wd *walkDist) {
					if !e.exactWalkDistInto(wd, s, u, math.MaxInt) {
						t.Fatalf("%s u=%d: exact propagation refused", label, u)
					}
				}
				first, last := sample, push
				if b == builtSampled {
					first, last = push, sample
				}
				if b == builtExact || queries[builtSampled]%4 == 0 {
					horizonOf(u, first)
				}
				hq, bound := horizonOf(u, last)
				if h != hq {
					t.Fatalf("%s u=%d: plan keeps %d steps of builder %d, whose horizon is %d", label, u, h, b, hq)
				}
				for step := 0; step < h; step++ {
					if !sameStep(pl.wd, &whole, step) {
						t.Fatalf("%s u=%d: step %d of the plan's distribution is not the builder's", label, u, step)
					}
				}
				queries[b]++
				if h < keptSteps(&whole) {
					cutBy[b]++
				}
				bound += 1e-15 // rounding of the two sums compared
				for i, c := range pl.cands {
					v := c.v
					s.rng.Seed(e.candSeed(v))
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
					scored[b]++
				}
			}
			e.putScratch(qs)
			e.putScratch(s)
			t.Logf("%s: %d exact and %d sampled queries (%d and %d cut), %d candidates, largest loss %.3g of %.3g",
				label, queries[builtExact], queries[builtSampled], cutBy[builtExact], cutBy[builtSampled], scored[0]+scored[1], worst, e.tailTol)
			if queries[0]+queries[1] < minQueries || cutBy[0]+cutBy[1] < minQueries/4 || scored[0]+scored[1] < 10*minQueries || worst == 0 {
				t.Fatalf("%s: too few queries, cuts or candidates to mean anything", label)
			}
		}
	}
}
