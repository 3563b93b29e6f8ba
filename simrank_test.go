package simrank

import (
	"math"
	"strings"
	"testing"
)

func TestBuilderAndQueries(t *testing.T) {
	gb := NewGraphBuilder(6)
	// Two "pages" 4 and 5 linked from the same three pages 1, 2, 3.
	for _, src := range []int{1, 2, 3} {
		if err := gb.AddEdge(src, 4); err != nil {
			t.Fatal(err)
		}
		if err := gb.AddEdge(src, 5); err != nil {
			t.Fatal(err)
		}
	}
	if err := gb.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g := gb.Build()
	if g.NumVertices() != 6 || g.NumEdges() != 7 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(1, 4) || g.HasEdge(4, 1) {
		t.Fatal("edges wrong")
	}
	if g.InDegree(4) != 3 || g.OutDegree(1) != 2 {
		t.Fatal("degrees wrong")
	}

	idx := BuildIndex(g, DefaultOptions())
	s, err := idx.SinglePair(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 4 and 5 share all three in-links: the t=1 series term alone is
	// c·(1−c)/3 = 0.08 at c = 0.6, and t=2 adds c²·(1−c)/9.
	if s < 0.07 {
		t.Fatalf("s(4,5) = %v, expected clearly positive", s)
	}
	top, err := idx.TopK(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || top[0].Node != 5 {
		t.Fatalf("TopK(4) = %v, expected 5 first", top)
	}
}

func TestSinglePairSelf(t *testing.T) {
	g := GenerateWebGraph(50, 3, 0.3, 1)
	idx := BuildIndex(g, DefaultOptions())
	s, err := idx.SinglePair(7, 7)
	if err != nil || s != 1 {
		t.Fatalf("self similarity = %v, err %v", s, err)
	}
}

func TestVertexRangeErrors(t *testing.T) {
	g := GenerateWebGraph(10, 2, 0.3, 1)
	idx := BuildIndex(g, DefaultOptions())
	if _, err := idx.TopK(10, 5); err == nil {
		t.Fatal("expected error for out-of-range vertex")
	}
	if _, err := idx.TopK(-1, 5); err == nil {
		t.Fatal("expected error for negative vertex")
	}
	if _, err := idx.SinglePair(0, 99); err == nil {
		t.Fatal("expected error")
	}
	if _, err := idx.Similar(99, 0.1); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ExactSingleSource(g, DefaultOptions(), 99); err == nil {
		t.Fatal("expected error")
	}
}

func TestBuilderErrors(t *testing.T) {
	gb := NewGraphBuilder(3)
	if err := gb.AddEdge(0, 3); err == nil {
		t.Fatal("expected range error")
	}
	if err := gb.AddEdge(-1, 0); err == nil {
		t.Fatal("expected range error")
	}
	if err := gb.AddUndirectedEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g := gb.Build()
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge incomplete")
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatal("edges lost")
	}
	if _, err := FromEdges(2, [][2]int{{0, 5}}); err == nil {
		t.Fatal("expected error")
	}
}

func TestLoadEdgeList(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("# c\n0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if _, err := LoadEdgeList(strings.NewReader("bogus line\n")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestTopKAgainstExact(t *testing.T) {
	g := GenerateCollaborationGraph(100, 5, 0.7, 3)
	idx := BuildIndex(g, DefaultOptions())
	hits, total := 0, 0
	for u := 0; u < 15; u++ {
		approx, err := idx.TopK(u, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ExactTopK(g, DefaultOptions(), u, 10)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int]bool{}
		for _, r := range approx {
			got[r.Node] = true
		}
		for _, w := range want {
			if w.Score < 0.05 {
				continue
			}
			total++
			if got[w.Node] {
				hits++
			}
		}
	}
	if total > 0 && float64(hits) < 0.85*float64(total) {
		t.Fatalf("recall %d/%d too low", hits, total)
	}
}

func TestSimilarThreshold(t *testing.T) {
	g := GenerateCollaborationGraph(80, 5, 0.8, 5)
	idx := BuildIndex(g, DefaultOptions())
	res, err := idx.Similar(0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Score < 0.05 {
			t.Fatalf("result below threshold: %v", r)
		}
	}
}

func TestAllTopKShape(t *testing.T) {
	g := GenerateWebGraph(80, 4, 0.3, 2)
	opts := DefaultOptions()
	opts.Workers = 2
	idx := BuildIndex(g, opts)
	rows := idx.AllTopK(5)
	if len(rows) != g.NumVertices() {
		t.Fatalf("rows = %d", len(rows))
	}
	for u, row := range rows {
		if len(row) > 5 {
			t.Fatalf("row %d has %d entries", u, len(row))
		}
		for _, r := range row {
			if r.Node == u {
				t.Fatalf("vertex %d in its own results", u)
			}
		}
	}
}

func TestExactAllPairsSymmetric(t *testing.T) {
	g := GenerateSocialGraph(40, 3, 0.3, 7)
	s := ExactAllPairs(g, 0.6, 15)
	n := g.NumVertices()
	for i := 0; i < n; i++ {
		if s[i][i] != 1 {
			t.Fatalf("diag %d = %v", i, s[i][i])
		}
		for j := 0; j < n; j++ {
			if math.Abs(s[i][j]-s[j][i]) > 1e-12 {
				t.Fatal("asymmetric")
			}
		}
	}
	// Defaults kick in for bad arguments.
	s2 := ExactAllPairs(g, -1, 0)
	if len(s2) != n {
		t.Fatal("defaulted call failed")
	}
}

func TestExhaustiveOption(t *testing.T) {
	g := GenerateCollaborationGraph(40, 5, 0.8, 9)
	opts := DefaultOptions()
	opts.Exhaustive = true
	idx := BuildIndex(g, opts)
	top, err := idx.TopK(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("unsorted")
		}
	}
}

func TestExactScoresOption(t *testing.T) {
	g := GenerateCollaborationGraph(50, 5, 0.8, 13)
	opts := DefaultOptions()
	opts.ExactScores = true
	// A push budget (a quarter of this) that the community graph, where
	// every walk spreads over a clique, fits under on both sides.
	opts.BoundSamples = 1 << 20
	idx := BuildIndex(g, opts)
	top, err := idx.TopK(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) > 0 {
		// Scores are deterministic series values less what the query side's
		// horizon drops, at most c^T·(1−c); cross-check the best.
		row, err := ExactSingleSource(g, opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		tail := math.Pow(opts.DecayFactor, float64(opts.Steps)) * (1 - opts.DecayFactor)
		if diff := row[top[0].Node] - top[0].Score; diff > tail+1e-9 || diff < -1e-9 {
			t.Fatalf("exact-scored %v vs series %v", top[0].Score, row[top[0].Node])
		}
	}
}

func TestTopKWithStats(t *testing.T) {
	g := GenerateWebGraph(200, 4, 0.3, 5)
	idx := BuildIndex(g, DefaultOptions())
	res, st, err := idx.TopKWithStats(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Refined+st.PrunedByRough+st.PrunedByBound > st.Candidates {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	plain, err := idx.TopK(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(plain) {
		t.Fatal("stats variant changed results")
	}
	if _, _, err := idx.TopKWithStats(-1, 5); err == nil {
		t.Fatal("expected range error")
	}
}

func TestSimilarityJoinPublicAPI(t *testing.T) {
	g := GenerateCollaborationGraph(40, 5, 0.8, 17)
	idx := BuildIndex(g, DefaultOptions())
	pairs := idx.SimilarityJoin(0.05, 10)
	if len(pairs) > 10 {
		t.Fatalf("cap ignored: %d pairs", len(pairs))
	}
	for i, p := range pairs {
		if p.U >= p.V || p.Score < 0.05 {
			t.Fatalf("bad pair %+v", p)
		}
		if i > 0 && pairs[i-1].Score < p.Score {
			t.Fatal("unsorted pairs")
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	p := DefaultOptions().toParams()
	if p.Seed != 1 {
		t.Fatalf("default seed = %d", p.Seed)
	}
	o := Options{Seed: 42, DecayFactor: 0.8}
	if o.toParams().Seed != 42 {
		t.Fatal("seed not propagated")
	}
}

func TestStatsAndGraphAccessors(t *testing.T) {
	g := GenerateWebGraph(60, 3, 0.3, 4)
	idx := BuildIndex(g, DefaultOptions())
	if idx.Graph() != g {
		t.Fatal("Graph accessor broken")
	}
	st := idx.Stats()
	if st.IndexBytes <= 0 || st.IndexTime <= 0 || st.PreprocessTime != st.IndexTime {
		t.Fatalf("stats: %+v", st)
	}
}

func TestGraphStats(t *testing.T) {
	g := GenerateWebGraph(300, 4, 0.3, 9)
	st := g.Stats(10)
	if st.Vertices != 300 || st.Edges != g.NumEdges() {
		t.Fatalf("stats sizes wrong: %+v", st)
	}
	if st.AvgInDegree <= 0 || st.MaxInDegree <= 0 {
		t.Fatalf("degree stats missing: %+v", st)
	}
	if st.AvgDistance <= 0 {
		t.Fatalf("distance not sampled: %+v", st)
	}
	fast := g.Stats(0)
	if fast.AvgDistance != 0 {
		t.Fatal("distSamples=0 should skip distance sampling")
	}
}

func TestBipartiteGenerator(t *testing.T) {
	g := GenerateBipartiteGraph(50, 20, 4, 3)
	if g.NumVertices() != 70 {
		t.Fatal("size wrong")
	}
	idx := BuildIndex(g, DefaultOptions())
	// Items are similar through co-raters; query an item.
	top, err := idx.TopK(55, 5)
	if err != nil {
		t.Fatal(err)
	}
	_ = top // may legitimately be empty on sparse data; just exercise
}

func TestCitationGenerator(t *testing.T) {
	g := GenerateCitationGraph(200, 4, 8)
	if g.NumVertices() != 200 {
		t.Fatal("size wrong")
	}
	idx := BuildIndex(g, DefaultOptions())
	if _, err := idx.TopK(150, 10); err != nil {
		t.Fatal(err)
	}
}
