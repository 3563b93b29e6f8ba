package graph

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.N(), g.M())
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(0, 2)
	g := b.Build()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
	if got := g.Out(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Out(0) = %v", got)
	}
	if got := g.In(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("In(2) = %v", got)
	}
	if g.InDegree(0) != 0 || g.OutDegree(0) != 2 {
		t.Fatalf("degrees of 0: in=%d out=%d", g.InDegree(0), g.OutDegree(0))
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
}

func TestBuilderDedupesAndDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1) // self loop dropped by default
	b.AddEdge(2, 0)
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("expected 2 edges after dedup, got %d", g.M())
	}
}

func TestBuilderKeepSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	b.KeepSelfLoops = true
	b.AddEdge(1, 1)
	g := b.Build()
	if g.M() != 1 || !g.HasEdge(1, 1) {
		t.Fatal("self loop not kept")
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestEdgesIteration(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}, {2, 0}})
	var got []Edge
	g.Edges(func(u, v uint32) bool {
		got = append(got, Edge{u, v})
		return true
	})
	if len(got) != 3 {
		t.Fatalf("iterated %d edges", len(got))
	}
	// Early stop.
	count := 0
	g.Edges(func(u, v uint32) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop iterated %d", count)
	}
}

// Property: in/out adjacency are consistent views of the same edge set.
func TestInOutConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		m := r.Intn(4 * n)
		g := ErdosRenyi(n, m, seed)
		// Every out-edge appears as an in-edge and vice versa.
		totalIn := 0
		for v := uint32(0); int(v) < g.N(); v++ {
			totalIn += g.InDegree(v)
			for _, u := range g.In(v) {
				if !g.HasEdge(u, v) {
					return false
				}
			}
		}
		return totalIn == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := PreferentialAttachment(200, 3, 0.3, 7)
	for v := uint32(0); int(v) < g.N(); v++ {
		if !sort.SliceIsSorted(g.Out(v), func(i, j int) bool { return g.Out(v)[i] < g.Out(v)[j] }) {
			t.Fatalf("Out(%d) unsorted", v)
		}
		if !sort.SliceIsSorted(g.In(v), func(i, j int) bool { return g.In(v)[i] < g.In(v)[j] }) {
			t.Fatalf("In(%d) unsorted", v)
		}
	}
}

func TestStarShape(t *testing.T) {
	g := Star(4)
	// Matches the claw of Example 1: hub 0 with leaves 1..3, undirected.
	if g.M() != 6 {
		t.Fatalf("star(4) m=%d", g.M())
	}
	if g.InDegree(0) != 3 || g.OutDegree(0) != 3 {
		t.Fatal("hub degrees wrong")
	}
	for v := uint32(1); v < 4; v++ {
		if g.InDegree(v) != 1 || g.OutDegree(v) != 1 {
			t.Fatalf("leaf %d degrees wrong", v)
		}
	}
}

func TestDirectedStarDangling(t *testing.T) {
	g := DirectedStar(5)
	if g.InDegree(0) != 4 {
		t.Fatal("hub in-degree wrong")
	}
	for v := uint32(1); v < 5; v++ {
		if g.InDegree(v) != 0 {
			t.Fatalf("leaf %d should have no in-links", v)
		}
	}
}

func TestCycleAndPath(t *testing.T) {
	c := Cycle(5)
	if c.M() != 5 {
		t.Fatal("cycle m wrong")
	}
	for v := uint32(0); v < 5; v++ {
		if c.InDegree(v) != 1 || c.OutDegree(v) != 1 {
			t.Fatal("cycle degree wrong")
		}
	}
	p := Path(5)
	if p.M() != 4 || p.InDegree(0) != 0 || p.OutDegree(4) != 0 {
		t.Fatal("path shape wrong")
	}
}

func TestCompleteGraph(t *testing.T) {
	g := Complete(5)
	if g.M() != 20 {
		t.Fatalf("complete(5) m=%d", g.M())
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatal("grid n wrong")
	}
	// 2 * (#horizontal + #vertical) = 2 * (3*3 + 2*4) = 34
	if g.M() != 34 {
		t.Fatalf("grid m=%d, want 34", g.M())
	}
}

func TestErdosRenyiEdgeCount(t *testing.T) {
	g := ErdosRenyi(100, 500, 1)
	if g.M() != 500 {
		t.Fatalf("ER m=%d, want 500", g.M())
	}
	g2 := ErdosRenyi(3, 100, 1) // more edges than possible
	if g2.M() != 6 {
		t.Fatalf("saturated ER m=%d, want 6", g2.M())
	}
}

func TestPreferentialAttachmentSkew(t *testing.T) {
	g := PreferentialAttachment(2000, 3, 0.2, 42)
	if g.N() != 2000 {
		t.Fatal("n wrong")
	}
	// Heavy tail: max in-degree far above the mean.
	maxDeg := 0
	for v := uint32(0); int(v) < g.N(); v++ {
		maxDeg = max(maxDeg, g.InDegree(v))
	}
	mean := float64(g.M()) / float64(g.N())
	if float64(maxDeg) < 5*mean {
		t.Fatalf("PA graph not skewed: max in-degree %d, mean %.1f", maxDeg, mean)
	}
}

func TestCopyingModelLocality(t *testing.T) {
	g := CopyingModel(2000, 5, 0.3, 42)
	if g.N() != 2000 {
		t.Fatal("n wrong")
	}
	// Copying should create shared in-neighbourhoods: some vertex pair
	// must share at least 2 in-neighbours.
	shared := 0
	for v := uint32(0); v < 200; v++ {
		in := g.In(v)
		if len(in) >= 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("copying model produced no shared in-neighbourhoods in sample")
	}
}

func TestCollaborationConnectedish(t *testing.T) {
	g := Collaboration(200, 4, 0.8, 100, 3)
	if g.N() == 0 || g.M() == 0 {
		t.Fatal("collaboration graph empty")
	}
	// Undirected by construction.
	bad := 0
	g.Edges(func(u, v uint32) bool {
		if !g.HasEdge(v, u) {
			bad++
		}
		return true
	})
	if bad > 0 {
		t.Fatalf("%d non-reciprocated edges in collaboration graph", bad)
	}
}

func TestCitationDAGIsAcyclic(t *testing.T) {
	g := CitationDAG(500, 4, 9)
	// All edges point from higher ID to lower ID.
	ok := true
	g.Edges(func(u, v uint32) bool {
		if v >= u {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		t.Fatal("citation DAG has a forward edge")
	}
}

func TestBipartiteStructure(t *testing.T) {
	const users, items = 100, 30
	g := BipartiteUserItem(users, items, 5, 4)
	if g.N() != users+items {
		t.Fatal("n wrong")
	}
	bad := false
	g.Edges(func(u, v uint32) bool {
		uIsUser := int(u) < users
		vIsUser := int(v) < users
		if uIsUser == vIsUser {
			bad = true
			return false
		}
		return true
	})
	if bad {
		t.Fatal("bipartite graph has a same-side edge")
	}
}

func TestGenerateDispatch(t *testing.T) {
	for _, spec := range []GenSpec{
		{Kind: "er", N: 20, M: 40, Seed: 1},
		{Kind: "ba", N: 20, K: 2, P: 0.2, Seed: 1},
		{Kind: "copying", N: 20, K: 2, P: 0.3, Seed: 1},
		{Kind: "collab", N: 10, K: 3, P: 0.8, Seed: 1},
		{Kind: "citation", N: 20, K: 2, Seed: 1},
		{Kind: "bipartite", N: 10, N2: 5, K: 2, Seed: 1},
		{Kind: "star", N: 5},
		{Kind: "cycle", N: 5},
		{Kind: "path", N: 5},
		{Kind: "grid", Rows: 3, Cols: 3},
		{Kind: "complete", N: 4},
	} {
		g, err := Generate(spec)
		if err != nil {
			t.Fatalf("Generate(%q): %v", spec.Kind, err)
		}
		if g.N() == 0 {
			t.Fatalf("Generate(%q): empty graph", spec.Kind)
		}
	}
	if _, err := Generate(GenSpec{Kind: "nope"}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := PreferentialAttachment(300, 3, 0.2, 5)
	b := PreferentialAttachment(300, 3, 0.2, 5)
	if a.M() != b.M() {
		t.Fatal("same seed, different edge counts")
	}
	var ea, eb []Edge
	a.Edges(func(u, v uint32) bool { ea = append(ea, Edge{u, v}); return true })
	b.Edges(func(u, v uint32) bool { eb = append(eb, Edge{u, v}); return true })
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}
