package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func coreBenchEngine(b *testing.B) *Engine {
	b.Helper()
	g := graph.CopyingModel(20000, 8, 0.3, 1)
	p := DefaultParams()
	p.Seed = 1
	return Build(g, p)
}

// The 100k-vertex query benchmark graph is expensive to preprocess, so all
// query-path benchmarks share one engine.
var (
	benchOnce   sync.Once
	benchEngine *Engine
)

func bigBenchEngine(b *testing.B) *Engine {
	b.Helper()
	benchOnce.Do(func() {
		g := graph.CopyingModel(100000, 8, 0.3, 1)
		p := DefaultParams()
		p.Seed = 1
		p.Workers = 4
		benchEngine = Build(g, p)
	})
	return benchEngine
}

// socialBenchEngine is the 100k-vertex preferential-attachment graph under
// the defaults, as simserver builds it for the end-to-end social workload.
var (
	socialOnce   sync.Once
	socialEngine *Engine
)

func socialBenchEngine(b *testing.B) *Engine {
	b.Helper()
	socialOnce.Do(func() {
		p := DefaultParams()
		p.Seed = 1
		socialEngine = Build(graph.PreferentialAttachment(100000, 10, 0.4, 1), p)
	})
	return socialEngine
}

// BenchmarkTopK is the headline end-to-end query benchmark: top-20 search
// on a 100k-vertex graph with the full pruning stack.
func BenchmarkTopK(b *testing.B) {
	e := bigBenchEngine(b)
	n := uint32(e.Graph().N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TopK(uint32(i*7919+13)%n, 20)
	}
}

// BenchmarkTopKWarm is BenchmarkTopK with the query plans in the prolog
// cache: what a popular vertex costs. With the tally cache off a query
// still walks its candidates; with it warm a query is two cache reads and
// a dot product per candidate.
func BenchmarkTopKWarm(b *testing.B) {
	e := bigBenchEngine(b)
	n := uint32(e.Graph().N())
	us := make([]uint32, 256)
	for i := range us {
		us[i] = uint32(i*7919+13) % n
	}
	defer func() { e.cache = nil }()
	for _, tc := range []struct {
		name  string
		tally int64
	}{{"tally=off", 0}, {"tally=warm", 64 << 20}} {
		b.Run(tc.name, func(b *testing.B) {
			e.cache = nil
			if tc.tally > 0 {
				e.cache = newClockCache[tally](int(n), tc.tally)
			}
			for _, u := range us {
				e.TopK(u, 20)
			}
			before := e.PrologStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.TopK(us[i%len(us)], 20)
			}
			b.StopTimer()
			if after := e.PrologStats(); after.Misses != before.Misses {
				b.Fatalf("%d prolog misses during the warm loop", after.Misses-before.Misses)
			}
		})
	}
}

// BenchmarkTopKSocial is the wide-support regime none of the copying-model
// benchmarks reach: on a preferential-attachment graph the RAlpha query
// walks spread over thousands of vertices per step and a query scores
// hundreds of candidates, so the time goes to ordering supports and to
// looking candidate positions up in the query-side distribution. Uniform
// queries: every query pays the full prolog and every candidate its walks.
// n=20000 runs one worker with the caches off; n=100000 is the graph and
// the engine simserver builds for the end-to-end social-uniform-single
// workload (its defaults: prolog cache on, never hit by this stream).
func BenchmarkTopKSocial(b *testing.B) {
	for _, n := range []int{20000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := socialBenchEngine(b)
			if n == 20000 {
				p := DefaultParams()
				p.Seed = 1
				p.Workers = 1
				p.PrologBytes = -1
				e = Build(graph.PreferentialAttachment(n, 10, 0.4, 1), p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.TopK(uint32(i*7919+13)%uint32(n), 20)
			}
		})
	}
}

// BenchmarkWalkDistLookup measures one directory probe of each kind over
// the same support — 5 000 of 100 000 vertices, the width of a social
// query's middle steps — for ids inside it and ids outside it, 65 536 of
// each drawn at random so that the branch predictor cannot learn the
// sequence (with a few thousand ids it does, and a bucket miss reads three
// times faster than it is).
func BenchmarkWalkDistLookup(b *testing.B) {
	const n, S, probes = 100000, 5000, 1 << 16
	r := rng.New(1)
	s := newScratch(n)
	s.beginTally()
	for len(s.touched) < S {
		s.tallyCount(uint32(r.Intn(n)))
	}
	var hits, misses []uint32
	for len(hits) < probes {
		hits = append(hits, s.touched[r.Intn(S)])
	}
	for len(misses) < probes {
		if w := uint32(r.Intn(n)); s.mark[w] != s.epoch {
			misses = append(misses, w)
		}
	}
	var wd walkDist
	wd.reset(2, true)
	wd.setRankSupport(0, n, s.touched)
	wd.setBucketSupport(1, s)
	bits32, rank := wd.ranks(0)
	off, verts, shift := wd.buckets(1)
	for _, kind := range []string{"bucket", "rank"} {
		for _, ids := range []struct {
			name string
			ws   []uint32
		}{{"hit", hits}, {"miss", misses}} {
			b.Run(kind+"/"+ids.name, func(b *testing.B) {
				sum := 0
				if kind == "rank" {
					for i := 0; i < b.N; i++ {
						sum += rankIndex(bits32, rank, ids.ws[i%probes])
					}
				} else {
					for i := 0; i < b.N; i++ {
						sum += bucketIndex(off, verts, shift, ids.ws[i%probes])
					}
				}
				if (ids.name == "miss") != (sum < 0) && b.N >= probes {
					b.Fatalf("%s lookups summed to %d", ids.name, sum)
				}
			})
		}
	}
}

// BenchmarkSinglePairOneSided measures the per-candidate scoring kernel:
// one RScore-walk estimate against a prepared query-side distribution.
func BenchmarkSinglePairOneSided(b *testing.B) {
	e := bigBenchEngine(b)
	n := uint32(e.Graph().N())
	s := e.getScratch()
	defer e.putScratch(s)
	r := rng.New(1)
	e.sampleWalkDistInto(&s.wd, s, 42, e.p.RAlpha, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.singlePairOneSided(s, &s.wd, uint32(i*31+5)%n, e.p.RScore, r)
	}
}

// BenchmarkWalkStep measures the raw Monte-Carlo workhorse, one op being
// one StepWalks call: web advances RScore walks on the 100 000-vertex
// copying graph until they all die; social is the query side of the
// end-to-end social workload — RAlpha walks from one query vertex on
// PA(100 000, 10, 0.4), restarted from the next vertex after T−1 steps,
// as sampleWalkDistInto runs them.
func BenchmarkWalkStep(b *testing.B) {
	b.Run("web", func(b *testing.B) {
		e := bigBenchEngine(b)
		s := e.getScratch()
		defer e.putScratch(s)
		pos := s.walkBuf(e.p.RScore)
		lane := s.laneBuf(e.p.RScore)
		resetWalks(pos, 42)
		r := rng.New(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if e.wt.StepWalks(r, pos, lane) == 0 {
				resetWalks(pos, 42)
			}
		}
	})
	b.Run("social", func(b *testing.B) {
		g := graph.PreferentialAttachment(100000, 10, 0.4, 1)
		wt := g.BuildWalkTable()
		p := DefaultParams()
		n := uint32(g.N())
		pos := make([]uint32, p.RAlpha)
		lane := make([]uint64, 2*min(p.RAlpha, graph.StepLane))
		u, t := uint32(13), 0
		resetWalks(pos, u)
		r := rng.New(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t++
			if wt.StepWalks(r, pos, lane) == 0 || t == p.T-1 {
				u, t = (u*7919+13)%n, 0
				resetWalks(pos, u)
			}
		}
	})
}

// BenchmarkCandWalks measures candidate walk simulation alone, on the
// graph of the end-to-end social workload (too large for the cache, so a
// step is two dependent misses): one op is one candidate's RScore walks
// of T−1 steps, from one stream at a time, from the index's 8 lanes and
// from the graph.MaxWalkLanes lanes scoreLanes runs in lockstep.
func BenchmarkCandWalks(b *testing.B) {
	g := graph.PreferentialAttachment(100000, 10, 0.4, 1)
	wt := g.BuildWalkTable()
	p := DefaultParams()
	T, R := p.T, p.RScore
	n := uint32(g.N())
	for _, k := range []int{1, indexLanes, graph.MaxWalkLanes} {
		b.Run(fmt.Sprintf("lanes=%d", k), func(b *testing.B) {
			lanes := newWalkLanes(k, T*R)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += k {
				for l := range lanes {
					v := uint32((i+l)*7919+13) % n
					lanes[l].Start = v
					lanes[l].Rng.Seed(uint64(v))
				}
				wt.WalkLanes(lanes, 0, R, T-1, R)
			}
		})
	}
}

// BenchmarkWalkStepDegree isolates the walk kernel across in-degree
// regimes: uniform rows keep the rejection loop's threshold branch
// predictable, the power-law mix stresses it with varying bounds, and
// the high-degree graph makes every adjacency access a fresh cache
// line. Walk death differs per regime, so live-lane compaction is
// exercised at different densities too.
func BenchmarkWalkStepDegree(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"uniform", graph.ErdosRenyi(20000, 8, 1)},
		{"powerlaw", graph.PreferentialAttachment(20000, 8, 0.3, 1)},
		{"highdeg", graph.ErdosRenyi(4000, 128, 1)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			wt := tc.g.BuildWalkTable()
			R := DefaultParams().RScore
			pos := make([]uint32, R)
			lane := make([]uint64, 2*min(R, graph.StepLane))
			resetWalks(pos, 42)
			r := rng.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if wt.StepWalks(r, pos, lane) == 0 {
					resetWalks(pos, 42)
				}
			}
		})
	}
}

// BenchmarkColdStartLoad compares the two restart paths over the same
// saved snapshot: stream decodes and checksums every section, mmap
// verifies the header and adopts page-cache-backed views. The gap is
// the cost a serving process pays before its first query.
func BenchmarkColdStartLoad(b *testing.B) {
	g := graph.CopyingModel(20000, 8, 0.3, 1)
	p := DefaultParams()
	p.Seed = 1
	e := Build(g, p)
	path := filepath.Join(b.TempDir(), "index.simr")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.SaveIndex(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := LoadIndex(g, p, f); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	})
	b.Run("mmap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			em, closer, err := LoadIndexMmap(path, p)
			if err != nil {
				b.Skipf("mmap load unavailable: %v", err)
			}
			_ = em
			if err := closer(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSinglePairAlg1(b *testing.B) {
	e := coreBenchEngine(b)
	n := uint32(e.Graph().N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SinglePairR(uint32(i)%n, uint32(i*13+7)%n, 100)
	}
}

func BenchmarkSampleWalkDist(b *testing.B) {
	e := coreBenchEngine(b)
	r := rng.New(1)
	n := uint32(e.Graph().N())
	s := e.getScratch()
	defer e.putScratch(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.sampleWalkDistInto(&s.wd, s, uint32(i)%n, e.p.RAlpha, r)
	}
}

// BenchmarkPushWalkDist is the exact push over the vertices
// BenchmarkSampleWalkDist samples, under the served budget: what a miss
// pays first, whether the push completes (the reported share) or is cut
// off and the sampling above follows.
func BenchmarkPushWalkDist(b *testing.B) {
	e := coreBenchEngine(b)
	n := uint32(e.Graph().N())
	s := e.getScratch()
	defer e.putScratch(s)
	served := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.exactWalkDistInto(&s.wd, s, uint32(i)%n, e.p.pushBudget()) {
			served++
		}
	}
	b.ReportMetric(float64(served)/float64(b.N), "served")
}

// BenchmarkPlanMiss is what a prolog miss pays before it scores its first
// candidate — enumeration from H, the query-side distribution, the bounds,
// the sort — on the two 100k-vertex graphs of the end-to-end benchmark: the
// prolog cache off, uniform vertices that have candidates.
func BenchmarkPlanMiss(b *testing.B) {
	for _, tc := range []struct {
		name   string
		engine func(*testing.B) *Engine
	}{{"web", bigBenchEngine}, {"social", socialBenchEngine}} {
		b.Run(tc.name, func(b *testing.B) {
			e := tc.engine(b).Snapshot
			cache := e.prolog
			e.prolog = nil
			defer func() { e.prolog = cache }()
			s := e.getScratch()
			defer e.putScratch(s)
			n := uint32(e.g.N())
			var us []uint32
			for i := 0; len(us) < 4096; i++ {
				if u := uint32(i*7919+13) % n; len(e.collectCandidates(s, u, nil, nil)) > 0 {
					us = append(us, u)
				}
			}
			cands := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands += len(e.queryPlan(s, us[i%len(us)]).cands)
			}
			b.ReportMetric(float64(cands)/float64(b.N), "cands")
		})
	}
}

// BenchmarkComputeL1 is Algorithm 2's table alone, over a whole ball: what
// the strategies that enumerate from the ball pay for it per plan.
func BenchmarkComputeL1(b *testing.B) {
	e := coreBenchEngine(b)
	r := rng.New(1)
	u := uint32(42)
	s := e.getScratch()
	defer e.putScratch(s)
	dist := s.distBuf()
	s.ball, _ = e.Graph().UndirectedBallInto(u, e.p.DMax, -1, dist, s.ball[:0])
	defer s.resetDist()
	e.sampleWalkDistInto(&s.wd, s, u, e.p.RAlpha, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.computeL1From(s, &s.wd, dist, e.p.DMax)
	}
}

func BenchmarkL2Bound(b *testing.B) {
	e := coreBenchEngine(b)
	n := uint32(e.Graph().N())
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += e.L2Bound(uint32(i)%n, uint32(i*31+5)%n)
	}
	_ = sink
}

func BenchmarkGammaPreprocessPerVertex(b *testing.B) {
	g := graph.CopyingModel(5000, 8, 0.3, 2)
	p := DefaultParams()
	e := New(g, p)
	r := rng.New(3)
	s := e.getScratch()
	defer e.putScratch(s)
	out := make([]float32, p.T)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.computeGammaInto(uint32(i%g.N()), p.RGamma, r, s, out)
	}
}

// BenchmarkBuildIndex is Algorithm 4 over a whole n = 20 000 graph of each
// family the end-to-end workloads serve: lane-group walks, chunk-claimed
// by Params.Workers (one per -cpu) and the CSR assembly.
func BenchmarkBuildIndex(b *testing.B) {
	for _, fx := range []struct {
		name string
		gen  func() *graph.Graph
	}{
		{"web", func() *graph.Graph { return graph.CopyingModel(20000, 8, 0.3, 1) }},
		{"social", func() *graph.Graph { return graph.PreferentialAttachment(20000, 10, 0.4, 1) }},
	} {
		b.Run(fx.name, func(b *testing.B) {
			e := New(fx.gen(), DefaultParams())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.buildIndex()
			}
		})
	}
}

func BenchmarkSimilarityJoinSmall(b *testing.B) {
	g := graph.Collaboration(150, 4, 0.85, 20, 5)
	p := DefaultParams()
	p.Seed = 1
	p.RAlpha = 500
	e := Build(g, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SimilarityJoin(0.05, 0)
	}
}

// BenchmarkTopKDuringRefresh measures query latency on the serving path
// while a churn goroutine continuously rebuilds snapshots — the number
// that demonstrates lock-free snapshot reads: queries served from the
// published snapshot should not degrade toward preprocess latency.
func BenchmarkTopKDuringRefresh(b *testing.B) {
	g := graph.CopyingModel(20000, 8, 0.3, 1)
	p := DefaultParams()
	p.Seed = 1
	d := NewDynamicFrom(g, p)
	defer d.Close()
	if err := d.Refresh(); err != nil {
		b.Fatal(err)
	}
	n := uint32(g.N())

	var stop atomic.Bool
	var churnDone sync.WaitGroup
	churnDone.Add(1)
	go func() {
		defer churnDone.Done()
		for i := uint32(0); !stop.Load(); i++ {
			u := (i*17 + 11) % (n - 1)
			d.AddEdge(u, u+1)
			if err := d.Refresh(); err != nil {
				b.Error(err)
				return
			}
			d.RemoveEdge(u, u+1)
			if err := d.Refresh(); err != nil {
				b.Error(err)
				return
			}
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.TopK(uint32(i*7919+13)%n, 20); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stop.Store(true)
	churnDone.Wait()
}

// The serving-tuned engine: candidate scoring dominates the query (small
// ball budget and a cheap u-side distribution), which is the regime batch
// serving runs in and the one the tally cache targets. Per-query scoring
// is sequential; concurrency comes from running whole queries in
// parallel, as TopKBatch does.
var (
	servingOnce   sync.Once
	servingEngine *Engine
)

func servingBenchEngine(b *testing.B) *Engine {
	b.Helper()
	servingOnce.Do(func() {
		g := graph.CopyingModel(100000, 8, 0.3, 1)
		p := DefaultParams()
		p.Seed = 1
		p.Workers = 4
		p.Strategy = CandidatesHybrid
		p.BallBudget = 2000
		p.RAlpha = 2000
		servingEngine = Build(g, p)
	})
	return servingEngine
}

// zipfStream returns a deterministic stream of count query vertices with
// Zipf(s)-distributed popularity over n vertices. Popularity rank is
// decorrelated from vertex id with a Fibonacci-hash permutation so hot
// queries are spread over the graph.
func zipfStream(n, count int, s float64, seed uint64) []uint32 {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	r := rng.New(seed)
	out := make([]uint32, count)
	for i := range out {
		rank, _ := slices.BinarySearch(cum, r.Float64()*total)
		if rank >= n {
			rank = n - 1
		}
		out[i] = uint32((uint64(rank) * 2654435761) % uint64(n))
	}
	return out
}

// BenchmarkTopKZipfThroughput measures batched serving throughput on a
// Zipf(1.1) query stream, with and without the cross-query tally cache.
// Both arms run the identical estimator on the identical engine (results
// are byte-identical); the cache arm reports its steady-state hit rate.
func BenchmarkTopKZipfThroughput(b *testing.B) {
	e := servingBenchEngine(b)
	stream := zipfStream(e.Graph().N(), 1<<14, 1.1, 42)
	const warmup = 4096

	run := func(b *testing.B, budget int64) {
		if budget > 0 && e.cache == nil {
			// The warm cache persists across benchmark invocations of this
			// arm, so measurements are taken at steady state.
			e.cache = newClockCache[tally](e.Graph().N(), budget)
			for _, u := range stream[:warmup] {
				if _, _, err := e.search(context.Background(), u, 20, e.p.Theta, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
		before := e.CacheStats()
		var next atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				u := stream[(next.Add(1)-1)%uint64(len(stream))]
				if _, _, err := e.search(context.Background(), u, 20, e.p.Theta, 1); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
		if budget > 0 {
			cs := e.CacheStats()
			if tot := (cs.Hits - before.Hits) + (cs.Misses - before.Misses); tot > 0 {
				b.ReportMetric(100*float64(cs.Hits-before.Hits)/float64(tot), "hit%")
			}
		}
	}

	b.Run("cache=off", func(b *testing.B) {
		e.cache = nil
		run(b, 0)
	})
	b.Run("cache=on", func(b *testing.B) {
		run(b, 256<<20)
	})
	e.cache = nil
}

func BenchmarkDynamicIncrementalRefresh(b *testing.B) {
	g := graph.CopyingModel(3000, 6, 0.3, 4)
	p := DefaultParams()
	p.Seed = 1
	d := NewDynamicFrom(g, p)
	if err := d.Refresh(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := uint32((i*17 + 11) % 2999)
		d.AddEdge(u, u+1)
		if err := d.Refresh(); err != nil {
			b.Fatal(err)
		}
		d.RemoveEdge(u, u+1)
		if err := d.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}
