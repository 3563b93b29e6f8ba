package core

import (
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
)

// buildQueryEngine builds a preprocessed engine tuned for small graphs.
func buildQueryEngine(g *graph.Graph, seed uint64, strat CandidateStrategy) *Engine {
	p := DefaultParams()
	p.Seed = seed
	p.Workers = 2
	p.RAlpha = 2000
	p.Strategy = strat
	return Build(g, p)
}

// exactTopK is the ground-truth ranking by the deterministic series.
func exactTopK(g *graph.Graph, c float64, T int, u uint32, k int) []exact.Scored {
	d := exact.UniformDiagonal(g.N(), c)
	return exact.TopK(exact.SingleSource(g, d, c, T, u), u, k)
}

// recallAtK measures |approx ∩ exact| / k, counting only exact entries
// above a noise floor (MC estimates cannot be expected to recover pairs
// whose score is deep below the sampling noise).
func recallAtK(got []Scored, want []exact.Scored, floor float64) (hit, total int) {
	gotSet := map[uint32]bool{}
	for _, s := range got {
		gotSet[s.V] = true
	}
	for _, w := range want {
		if w.Score < floor {
			continue
		}
		total++
		if gotSet[w.V] {
			hit++
		}
	}
	return hit, total
}

func TestTopKRecallOnCollaboration(t *testing.T) {
	g := graph.Collaboration(120, 5, 0.7, 40, 7)
	e := buildQueryEngine(g, 1, CandidatesIndex)
	hits, totals := 0, 0
	for u := uint32(0); u < 20; u++ {
		got := e.TopK(u, 10)
		want := exactTopK(g, e.p.C, e.p.T, u, 10)
		h, tot := recallAtK(got, want, 0.05)
		hits += h
		totals += tot
	}
	if totals == 0 {
		t.Skip("no high-similarity pairs in generated graph")
	}
	if float64(hits) < 0.85*float64(totals) {
		t.Fatalf("index-strategy recall %d/%d too low", hits, totals)
	}
}

func TestTopKRecallOnWebGraph(t *testing.T) {
	g := graph.CopyingModel(400, 5, 0.3, 11)
	e := buildQueryEngine(g, 2, CandidatesIndex)
	hits, totals := 0, 0
	for u := uint32(0); u < 25; u++ {
		got := e.TopK(u, 10)
		want := exactTopK(g, e.p.C, e.p.T, u, 10)
		h, tot := recallAtK(got, want, 0.05)
		hits += h
		totals += tot
	}
	if totals == 0 {
		t.Skip("no high-similarity pairs in generated graph")
	}
	if float64(hits) < 0.85*float64(totals) {
		t.Fatalf("web-graph recall %d/%d too low", hits, totals)
	}
}

func TestBallStrategyFindsEverything(t *testing.T) {
	// With the exhaustive ball strategy and pruning disabled, every
	// vertex with a clearly-above-threshold score must be recovered.
	g := graph.Collaboration(60, 5, 0.8, 20, 3)
	p := DefaultParams()
	p.Seed = 5
	p.Workers = 2
	p.Strategy = CandidatesBall
	p.RAlpha = 1000
	e := Build(g, p)
	d := exact.UniformDiagonal(g.N(), p.C)
	for u := uint32(0); u < 10; u++ {
		row := exact.SingleSource(g, d, p.C, p.T, u)
		res := e.Threshold(u, 0.01)
		gotSet := map[uint32]bool{}
		for _, s := range res {
			gotSet[s.V] = true
		}
		for v, s := range row {
			if uint32(v) == u || s < 0.08 { // well above theta and noise
				continue
			}
			if !gotSet[uint32(v)] {
				t.Fatalf("u=%d: missed vertex %d with exact score %v", u, v, s)
			}
		}
	}
}

func TestHybridSupersetOfIndex(t *testing.T) {
	g := graph.CopyingModel(200, 4, 0.3, 9)
	pi := DefaultParams()
	pi.Seed = 4
	pi.Workers = 1
	pi.RAlpha = 500
	idxEng := Build(g, pi)
	ph := pi
	ph.Strategy = CandidatesHybrid
	hybEng := Build(g, ph)
	u := uint32(17)
	collect := func(e *Engine) []uint32 {
		s := e.getScratch()
		defer e.putScratch(s)
		dist := s.distBuf()
		s.ball, _ = g.UndirectedBallInto(u, e.p.DMax, -1, dist, s.ball[:0])
		defer s.resetDist()
		out := e.collectCandidates(s, u, dist, s.ball)
		return append([]uint32(nil), out...)
	}
	ci := collect(idxEng)
	ch := collect(hybEng)
	chSet := map[uint32]bool{}
	for _, v := range ch {
		chSet[v] = true
	}
	for _, v := range ci {
		if !chSet[v] {
			t.Fatalf("hybrid candidates missing index candidate %d", v)
		}
	}
}

func TestQueryStatsAccounting(t *testing.T) {
	g := graph.CopyingModel(300, 4, 0.3, 13)
	e := buildQueryEngine(g, 6, CandidatesIndex)
	_, stats := e.TopKStats(5, 10)
	if stats.Candidates < 0 {
		t.Fatal("negative candidates")
	}
	if stats.Refined+stats.PrunedByRough+stats.PrunedByBound > stats.Candidates {
		t.Fatalf("stats overcount: %+v", stats)
	}
}

func TestPruningDoesNotChangeHighScorers(t *testing.T) {
	// Enabling/disabling the bounds must not change which clearly-high
	// vertices are returned (bounds are upper bounds, not heuristics).
	g := graph.Collaboration(80, 5, 0.8, 30, 17)
	base := DefaultParams()
	base.Seed = 8
	base.Workers = 1
	base.RAlpha = 1000
	base.Strategy = CandidatesBall

	noPrune := base
	noPrune.DisableL1 = true
	noPrune.DisableAdaptive = true

	e1 := Build(g, base)
	e2 := Build(g, noPrune)
	for u := uint32(0); u < 10; u++ {
		r1 := e1.Threshold(u, 0.01)
		set1 := map[uint32]bool{}
		for _, s := range r1 {
			set1[s.V] = true
		}
		for _, s := range e2.Threshold(u, 0.01) {
			if s.Score >= 0.1 && !set1[s.V] {
				t.Fatalf("u=%d: pruning dropped high scorer %d (%.3f)", u, s.V, s.Score)
			}
		}
	}
}

func TestTopKRespectsK(t *testing.T) {
	g := graph.Collaboration(60, 5, 0.8, 20, 21)
	e := buildQueryEngine(g, 9, CandidatesHybrid)
	for _, k := range []int{1, 3, 20} {
		res := e.TopK(0, k)
		if len(res) > k {
			t.Fatalf("k=%d returned %d results", k, len(res))
		}
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score {
				t.Fatalf("results not sorted: %v", res)
			}
		}
		for _, s := range res {
			if s.V == 0 {
				t.Fatal("query vertex in its own results")
			}
		}
	}
}

func TestPreprocessIndependentOfWorkerCount(t *testing.T) {
	// The per-vertex RNG derivation makes the preprocess artifacts
	// identical regardless of parallelism.
	g := graph.CopyingModel(300, 4, 0.3, 6)
	p := DefaultParams()
	p.Seed = 5
	p.RAlpha = 500
	p1 := p
	p1.Workers = 1
	p8 := p
	p8.Workers = 8
	e1 := Build(g, p1)
	e8 := Build(g, p8)
	for v := 0; v < e1.g.N(); v++ {
		a, b := e1.idx.rightRow(uint32(v)), e8.idx.rightRow(uint32(v))
		if len(a) != len(b) {
			t.Fatalf("index entry %d differs across worker counts", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("index entry %d differs across worker counts", v)
			}
		}
	}
}

func TestBallBudgetQueriesStillFindNeighbours(t *testing.T) {
	// With a tiny ball budget, queries must not silently prune clearly
	// similar vertices — the degree bound and the index still cover them.
	g := graph.Collaboration(60, 5, 0.8, 20, 5)
	p := DefaultParams()
	p.Seed = 7
	p.Workers = 1
	p.RAlpha = 1000
	p.BallBudget = 10 // absurdly small
	p.Strategy = CandidatesHybrid
	e := Build(g, p)
	pFull := p
	pFull.BallBudget = -1
	eFull := Build(g, pFull)
	for u := uint32(0); u < 10; u++ {
		full := eFull.TopK(u, 5)
		capped := e.TopK(u, 5)
		fullSet := map[uint32]bool{}
		for _, s := range full {
			fullSet[s.V] = true
		}
		hits := 0
		strong := 0
		for _, s := range full {
			if s.Score >= 0.1 {
				strong++
			}
		}
		for _, s := range capped {
			if fullSet[s.V] {
				hits++
			}
		}
		if strong > 0 && hits == 0 {
			t.Fatalf("u=%d: capped ball lost all of the full results (%v vs %v)", u, capped, full)
		}
	}
}

func TestTopKDeterministic(t *testing.T) {
	g := graph.CopyingModel(200, 4, 0.3, 5)
	e1 := buildQueryEngine(g, 11, CandidatesIndex)
	e2 := buildQueryEngine(g, 11, CandidatesIndex)
	for u := uint32(0); u < 10; u++ {
		a := e1.TopK(u, 5)
		b := e2.TopK(u, 5)
		if len(a) != len(b) {
			t.Fatalf("u=%d: lengths differ", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("u=%d: result %d differs: %v vs %v", u, i, a[i], b[i])
			}
		}
	}
}

func TestThresholdScoresAboveTheta(t *testing.T) {
	g := graph.Collaboration(80, 5, 0.7, 30, 9)
	e := buildQueryEngine(g, 13, CandidatesHybrid)
	res := e.Threshold(3, 0.05)
	for _, s := range res {
		if s.Score < 0.05 {
			t.Fatalf("threshold result below theta: %v", s)
		}
	}
}

func TestAllTopKMatchesPerVertex(t *testing.T) {
	g := graph.CopyingModel(120, 4, 0.3, 3)
	e := buildQueryEngine(g, 15, CandidatesIndex)
	all := e.AllTopK(5)
	if len(all) != g.N() {
		t.Fatalf("AllTopK returned %d rows", len(all))
	}
	for _, u := range []uint32{0, 17, 63} {
		single := e.TopK(u, 5)
		if len(single) != len(all[u]) {
			t.Fatalf("u=%d: lengths differ", u)
		}
		for i := range single {
			if single[i] != all[u][i] {
				t.Fatalf("u=%d: AllTopK differs from TopK at %d", u, i)
			}
		}
	}
}

func TestAllTopKIndependentOfWorkerCount(t *testing.T) {
	g := graph.CopyingModel(150, 4, 0.3, 8)
	p := DefaultParams()
	p.Seed = 3
	p.RAlpha = 300
	p1 := p
	p1.Workers = 1
	p4 := p
	p4.Workers = 4
	a := Build(g, p1).AllTopK(5)
	b := Build(g, p4).AllTopK(5)
	for u := range a {
		if len(a[u]) != len(b[u]) {
			t.Fatalf("u=%d: result lengths differ across worker counts", u)
		}
		for i := range a[u] {
			if a[u][i] != b[u][i] {
				t.Fatalf("u=%d: result %d differs across worker counts", u, i)
			}
		}
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		b := graph.NewBuilder(n)
		if n == 2 {
			b.AddEdge(0, 1)
		}
		g := b.Build()
		p := DefaultParams()
		p.Workers = 1
		e := Build(g, p)
		if n > 0 {
			res := e.TopK(0, 5)
			for _, s := range res {
				if s.V == 0 {
					t.Fatal("self in results")
				}
			}
		}
	}
}

func TestTopKAccumulator(t *testing.T) {
	a := newTopKAcc(3)
	for _, s := range []Scored{{1, 0.5}, {2, 0.9}, {3, 0.1}, {4, 0.7}, {5, 0.9}} {
		a.add(s)
	}
	res := a.result()
	if len(res) != 3 {
		t.Fatalf("len = %d", len(res))
	}
	// 0.9 tie broken toward smaller ID first.
	if res[0].V != 2 || res[1].V != 5 || res[2].V != 4 {
		t.Fatalf("order: %v", res)
	}
	if a.kth() != 0.7 {
		t.Fatalf("kth = %v", a.kth())
	}
	empty := newTopKAcc(0)
	empty.add(Scored{1, 1})
	if len(empty.result()) != 0 {
		t.Fatal("k=0 accumulated")
	}
}

func TestIndexBuilt(t *testing.T) {
	g := graph.CopyingModel(300, 4, 0.3, 7)
	e := buildQueryEngine(g, 3, CandidatesIndex)
	if e.idx == nil {
		t.Fatal("index not built")
	}
	if e.idx.indexedVertices() == 0 {
		t.Fatal("no vertex got any index entry")
	}
	if e.idx.bytes() <= 0 {
		t.Fatal("index bytes not accounted")
	}
	// Inverted lists must be consistent with forward lists.
	for u := 0; u < e.g.N(); u++ {
		for _, w := range e.idx.rightRow(uint32(u)) {
			found := false
			for _, l := range e.idx.leftRow(w) {
				if l == uint32(u) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("inverted list missing (%d -> %d)", u, w)
			}
		}
	}
}

func TestPreprocessStatsPopulated(t *testing.T) {
	g := graph.ErdosRenyi(100, 400, 4)
	e := buildQueryEngine(g, 5, CandidatesIndex)
	st := e.Stats()
	if st.IndexBytes <= 0 {
		t.Fatalf("stats: %+v", st)
	}
}
