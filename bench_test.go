package simrank

// Benchmarks regenerating the measured quantity behind every table and
// figure of the paper's evaluation (Section 8). The full row/series
// reproductions — which print the paper-format reports — live in
// cmd/experiments (internal/bench); these testing.B benches measure the
// kernels those reports time, at fixed laptop-scale sizes:
//
//	Table 1  -> BenchmarkTable1QueryScaling (query time vs n)
//	Table 2  -> BenchmarkTable2DatasetBuild (stand-in generation)
//	Figure 1 -> BenchmarkFigure1ExactVsApprox (all-pairs exact + series)
//	Figure 2 -> BenchmarkFigure2SingleSourceAndBFS (per-query cost)
//	Table 3  -> BenchmarkTable3ThresholdQuery / ...Fogaras
//	Table 4  -> BenchmarkTable4Preprocess / ...Query / ...FogarasQuery /
//	            ...YuAllPairs
//	Ablation -> BenchmarkAblationQuery/*
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/fogaras"
	"repro/internal/graph"
	"repro/internal/yu"
)

// benchGraphs caches the graphs and engines shared across benchmarks.
var benchGraphs struct {
	once sync.Once

	web    *graph.Graph // copying model, the method's primary target
	social *graph.Graph // preferential attachment
	collab *graph.Graph // Table 3-class small graph

	webEng    *core.Engine
	socialEng *core.Engine
	collabEng *core.Engine

	fogIdx *fogaras.Index
}

func setupBenchGraphs(b *testing.B) {
	b.Helper()
	benchGraphs.once.Do(func() {
		benchGraphs.web = graph.CopyingModel(20000, 8, 0.3, 1)
		benchGraphs.social = graph.PreferentialAttachment(20000, 10, 0.4, 2)
		benchGraphs.collab = graph.Collaboration(900, 4, 0.85, 100, 3)

		p := core.DefaultParams()
		p.Seed = 1
		benchGraphs.webEng = core.Build(benchGraphs.web, p)
		benchGraphs.socialEng = core.Build(benchGraphs.social, p)
		benchGraphs.collabEng = core.Build(benchGraphs.collab, p)

		fp := fogaras.DefaultParams()
		idx, err := fogaras.Build(benchGraphs.collab, fp)
		if err != nil {
			panic(err)
		}
		benchGraphs.fogIdx = idx
	})
}

// --- Table 1: query time must not scale with n -------------------------

func BenchmarkTable1QueryScaling(b *testing.B) {
	for _, n := range []int{5000, 20000, 80000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.CopyingModel(n, 8, 0.3, 7)
			p := core.DefaultParams()
			p.Seed = 1
			eng := core.Build(g, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.TopK(uint32(i%n), 20)
			}
		})
	}
}

// --- Table 2: dataset stand-in generation ------------------------------

func BenchmarkTable2DatasetBuild(b *testing.B) {
	ds, err := bench.ByName("web-stanford-sim", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		g, err := ds.Build()
		if err != nil || g.N() == 0 {
			b.Fatal("bad dataset")
		}
	}
}

// --- Figure 1: exact vs approximate SimRank ----------------------------

func BenchmarkFigure1ExactVsApprox(b *testing.B) {
	g := graph.Collaboration(250, 4, 0.85, 30, 3)
	const c = 0.6
	iters := exact.IterationsFor(c, 1e-5)
	d := exact.UniformDiagonal(g.N(), c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sTrue := exact.PartialSumsAllPairs(g, c, iters)
		sApprox := exact.SeriesAllPairs(g, d, c, 11)
		if sTrue.At(0, 0) != 1 || sApprox.N != g.N() {
			b.Fatal("bad result")
		}
	}
}

// --- Figure 2: exact single-source ranking + distances per query -------

func BenchmarkFigure2SingleSourceAndBFS(b *testing.B) {
	setupBenchGraphs(b)
	g := benchGraphs.web
	d := exact.UniformDiagonal(g.N(), 0.6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := uint32(i % g.N())
		row := exact.SingleSource(g, d, 0.6, 11, u)
		top := exact.TopK(row, u, 1000)
		dist := g.UndirectedDistances(u, -1)
		if len(top) > 0 && dist[top[0].V] < -1 {
			b.Fatal("impossible")
		}
	}
}

// --- Table 3: threshold (accuracy) queries ------------------------------

func BenchmarkTable3ThresholdQuery(b *testing.B) {
	setupBenchGraphs(b)
	eng := benchGraphs.collabEng
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Threshold(uint32(i%benchGraphs.collab.N()), 0.04)
	}
}

func BenchmarkTable3ThresholdQueryFogaras(b *testing.B) {
	setupBenchGraphs(b)
	idx := benchGraphs.fogIdx
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Threshold(uint32(i%benchGraphs.collab.N()), 0.04)
	}
}

// --- Table 4: preprocess, query, comparators ----------------------------

func BenchmarkTable4PreprocessWeb(b *testing.B) {
	setupBenchGraphs(b)
	p := core.DefaultParams()
	p.Seed = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(benchGraphs.web, p)
	}
}

func BenchmarkTable4QueryWeb(b *testing.B) {
	setupBenchGraphs(b)
	eng := benchGraphs.webEng
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.TopK(uint32(i%benchGraphs.web.N()), 20)
	}
}

func BenchmarkTable4QuerySocial(b *testing.B) {
	setupBenchGraphs(b)
	eng := benchGraphs.socialEng
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.TopK(uint32(i%benchGraphs.social.N()), 20)
	}
}

func BenchmarkTable4SinglePairMC(b *testing.B) {
	setupBenchGraphs(b)
	eng := benchGraphs.webEng
	n := uint32(benchGraphs.web.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.SinglePairR(uint32(i)%n, uint32(i*7+1)%n, 100)
	}
}

func BenchmarkTable4FogarasQuery(b *testing.B) {
	setupBenchGraphs(b)
	idx := benchGraphs.fogIdx
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.TopK(uint32(i%benchGraphs.collab.N()), 20)
	}
}

func BenchmarkTable4FogarasPreprocess(b *testing.B) {
	setupBenchGraphs(b)
	fp := fogaras.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fogaras.Build(benchGraphs.collab, fp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4YuAllPairs(b *testing.B) {
	setupBenchGraphs(b)
	yp := yu.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := yu.AllPairs(benchGraphs.collab, yp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: pruning ingredients -------------------------------------

func BenchmarkAblationQuery(b *testing.B) {
	setupBenchGraphs(b)
	variants := []struct {
		name string
		mod  func(p core.Params) core.Params
	}{
		{"full", func(p core.Params) core.Params { return p }},
		{"noAdaptive", func(p core.Params) core.Params { p.DisableAdaptive = true; return p }},
		{"ballCandidates", func(p core.Params) core.Params { p.Strategy = core.CandidatesBall; return p }},
		{"ballNoL1", func(p core.Params) core.Params {
			p.Strategy, p.DisableL1 = core.CandidatesBall, true
			return p
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			p := core.DefaultParams()
			p.Seed = 1
			eng := core.Build(benchGraphs.web, v.mod(p))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.TopK(uint32(i%benchGraphs.web.N()), 20)
			}
		})
	}
}

// --- Supporting kernels --------------------------------------------------

func BenchmarkExactSingleSource(b *testing.B) {
	setupBenchGraphs(b)
	g := benchGraphs.web
	d := exact.UniformDiagonal(g.N(), 0.6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact.SingleSource(g, d, 0.6, 11, uint32(i%g.N()))
	}
}

func BenchmarkPublicAPITopK(b *testing.B) {
	g := GenerateWebGraph(10000, 8, 0.3, 5)
	idx := BuildIndex(g, DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.TopK(i%g.NumVertices(), 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllTopKParallel(b *testing.B) {
	g := graph.CopyingModel(3000, 6, 0.3, 9)
	p := core.DefaultParams()
	p.Seed = 1
	eng := core.Build(g, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.AllTopK(20)
	}
}
