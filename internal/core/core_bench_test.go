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

// BenchmarkTopKLinear is BenchmarkTopK's query stream under the linear
// scorer, as simserver serves it, on the 100k-vertex web and social
// graphs: one push forward and one pruned pass backward a query, no index
// to build and no cache. Social splits a query by pass: /topk is the whole
// query, /forward the first-touch push alone (linearForwardInto) and
// /backward the backward pass alone (backwardInto and the accumulator's
// clear), both over the stream's first 256 queries, whose forwards
// /backward computes before it starts the clock; /backward reports the
// pass's relaxations a query as relax/op beside its time.
func BenchmarkTopKLinear(b *testing.B) {
	for _, g := range []struct {
		name string
		g    *graph.Graph
	}{
		{"web", graph.CopyingModel(100000, 8, 0.3, 1)},
		{"social", graph.PreferentialAttachment(100000, 10, 0.4, 1)},
	} {
		b.Run(g.name, func(b *testing.B) {
			p := DefaultParams()
			p.Strategy = CandidatesLinear
			e := Build(g.g, p)
			n := uint32(g.g.N())
			topk := func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.TopK(uint32(i*7919+13)%n, 20)
				}
			}
			if g.name != "social" {
				topk(b)
				return
			}
			b.Run("topk", topk)
			const cycle = 256
			b.Run("forward", func(b *testing.B) {
				s := e.getScratch()
				defer e.putScratch(s)
				e.linearForwardInto(&s.wd, s, 13) // the accumulator's first use allocates it
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.linearForwardInto(&s.wd, s, uint32((i%cycle)*7919+13)%n)
				}
			})
			b.Run("backward", func(b *testing.B) {
				s := e.getScratch()
				defer e.putScratch(s)
				fwd := make([]walkDist, cycle)
				for j := range fwd {
					e.linearForwardInto(&fwd[j], s, uint32(j*7919+13)%n)
				}
				ctx, eps := context.Background(), e.p.Theta/linearEpsDiv
				row, _, _, _ := e.backwardInto(ctx, s, &fwd[0], eps) // the first use grows the source list
				row.clear()
				b.ReportAllocs()
				b.ResetTimer()
				relax := 0
				for i := 0; i < b.N; i++ {
					row, _, r, _ := e.backwardInto(ctx, s, &fwd[i%len(fwd)], eps)
					row.clear()
					relax += r
				}
				b.ReportMetric(float64(relax)/float64(b.N), "relax/op")
			})
		})
	}
}

// BenchmarkTopKWarm is BenchmarkTopK's graph with the query's first step
// cached: what a popular vertex costs. "prolog" is the Monte-Carlo path
// with the query plans in the prolog cache, so a query still walks its
// candidates; "rows" is the linear scorer with the rows in the row cache,
// as simserver serves a repeated vertex, so a query is a cache read and a
// top-k over the row.
func BenchmarkTopKWarm(b *testing.B) {
	e := bigBenchEngine(b)
	n := uint32(e.Graph().N())
	us := make([]uint32, 256)
	for i := range us {
		us[i] = uint32(i*7919+13) % n
	}
	lp := DefaultParams()
	lp.Strategy = CandidatesLinear
	lp.CacheBytes = 64 << 20
	rows := Build(e.Graph(), lp)
	for _, tc := range []struct {
		name  string
		e     *Engine
		stats func() CacheStats
	}{{"prolog", e, e.PrologStats}, {"rows", rows, rows.CacheStats}} {
		b.Run(tc.name, func(b *testing.B) {
			for _, u := range us {
				tc.e.TopK(u, 20)
			}
			before := tc.stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.e.TopK(us[i%len(us)], 20)
			}
			b.StopTimer()
			if after := tc.stats(); after.Misses != before.Misses {
				b.Fatalf("%d cache misses during the warm loop", after.Misses-before.Misses)
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

// BenchmarkWalkDistLookup measures one probe of the scoring index
// (slotIndex) over a support of 500 and of 5 000 of 100 000 vertices — a
// social query's step-2 width and ten times it — for ids inside it and ids
// outside it, 65 536 of each drawn at random so that the branch predictor
// cannot learn the sequence.
func BenchmarkWalkDistLookup(b *testing.B) {
	const n, probes = 100000, 1 << 16
	for _, S := range []int{500, 5000} {
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
		wd.reset(1)
		wd.verts[0] = make([]uint32, S)
		s.orderTouched(wd.verts[0], s.touched)
		var x slotIndex
		x.build(&wd, n)
		uid, slot := x.uid, x.row(0)
		for _, ids := range []struct {
			name string
			ws   []uint32
		}{{"hit", hits}, {"miss", misses}} {
			b.Run(fmt.Sprintf("S=%d/%s", S, ids.name), func(b *testing.B) {
				sum := 0
				for i := 0; i < b.N; i++ {
					sum += int(slot[uid[ids.ws[i%probes]]]) - 1
				}
				if (ids.name == "miss") != (sum < 0) && b.N >= probes {
					b.Fatalf("%s probes summed to %d", ids.name, sum)
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
	e.walkDistInto(&s.wd, s, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.singlePairOneSided(s, &s.wd, uint32(i*31+5)%n, e.p.RScore, r)
	}
}

// BenchmarkWalkStep measures the raw Monte-Carlo workhorse, one op being
// one StepWalks call: web advances RScore walks on the 100 000-vertex
// copying graph until they all die; social advances RAlpha walks from one
// vertex of the end-to-end social workload's PA(100 000, 10, 0.4),
// restarted from the next vertex after T−1 steps — a batch too wide and a
// graph too large for the cache.
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

// BenchmarkCandWalks measures candidate walk simulation alone (candWalks),
// on the graph of the end-to-end social workload (too large for the cache,
// so a step is two dependent misses): one op is one candidate's RScore
// walks, from one lane at a time and from the graph.MaxWalkLanes lanes
// scoreLanes runs in lockstep, at 3 steps (the social workload's mean
// horizon less one: how far the lane kernel walks) and at T−1 (a whole
// walk).
func BenchmarkCandWalks(b *testing.B) {
	g := graph.PreferentialAttachment(100000, 10, 0.4, 1)
	e := New(g, DefaultParams())
	T, R := e.p.T, e.p.RScore
	n := uint32(g.N())
	for _, steps := range []int{3, T - 1} {
		for _, k := range []int{1, graph.MaxWalkLanes} {
			b.Run(fmt.Sprintf("steps=%d/lanes=%d", steps, k), func(b *testing.B) {
				lanes := newWalkLanes(k, T*R)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += k {
					for l := range lanes {
						lanes[l].Start = uint32((i+l)*7919+13) % n
					}
					e.candWalks(lanes, 0, R, steps, R)
				}
			})
		}
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

// BenchmarkQueryDist is the query-side distribution alone (walkDistInto)
// from uniform vertices of the two 100 000-vertex graphs of the end-to-end
// benchmark: what a prolog miss pays for it. It reports the cells — the
// support summed over the steps — a distribution holds.
func BenchmarkQueryDist(b *testing.B) {
	for _, tc := range []struct {
		name string
		gen  func() *graph.Graph
	}{
		{"web", func() *graph.Graph { return graph.CopyingModel(100000, 8, 0.3, 1) }},
		{"social", func() *graph.Graph { return graph.PreferentialAttachment(100000, 10, 0.4, 1) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := New(tc.gen(), DefaultParams())
			n := uint32(e.g.N())
			s := e.getScratch()
			defer e.putScratch(s)
			cells := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.walkDistInto(&s.wd, s, uint32(i*7919+13)%n)
				for t := 0; t < s.wd.T; t++ {
					cells += s.wd.support(t)
				}
			}
			b.ReportMetric(float64(cells)/float64(b.N), "cells")
		})
	}
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
	u := uint32(42)
	s := e.getScratch()
	defer e.putScratch(s)
	dist := s.distBuf()
	s.ball, _ = e.Graph().UndirectedBallInto(u, e.p.DMax, -1, dist, s.ball[:0])
	defer s.resetDist()
	e.walkDistInto(&s.wd, s, u)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.computeL1From(s, &s.wd, dist, e.p.DMax)
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

// BenchmarkTopKZipfThroughput measures the serving throughput of the
// linear scorer, whole queries in parallel as TopKBatch runs them, on a
// Zipf(1.1) stream over the 100k-vertex web graph, with and without the
// row cache. Both arms return byte-identical results and are warmed once,
// so they are measured at steady state; the cache arm reports its hit
// rate.
func BenchmarkTopKZipfThroughput(b *testing.B) {
	g := graph.CopyingModel(100000, 8, 0.3, 1)
	stream := zipfStream(g.N(), 1<<14, 1.1, 42)
	const warmup = 4096
	ctx := context.Background()
	for _, budget := range []int64{0, 256 << 20} {
		p := DefaultParams()
		p.Strategy = CandidatesLinear
		p.CacheBytes = budget
		e := Build(g, p)
		for _, u := range stream[:warmup] {
			if _, _, err := e.search(ctx, u, 20, e.p.Theta); err != nil {
				b.Fatal(err)
			}
		}
		name := "cache=off"
		if budget > 0 {
			name = "cache=on"
		}
		b.Run(name, func(b *testing.B) {
			before := e.CacheStats()
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					u := stream[(next.Add(1)-1)%uint64(len(stream))]
					if _, _, err := e.search(ctx, u, 20, e.p.Theta); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
			cs := e.CacheStats()
			if tot := (cs.Hits - before.Hits) + (cs.Misses - before.Misses); tot > 0 {
				b.ReportMetric(100*float64(cs.Hits-before.Hits)/float64(tot), "hit%")
			}
		})
	}
}

// BenchmarkDynamicSingleEdgeRefresh times one refresh after one edge
// update: each iteration inserts an edge, or removes the one the previous
// iteration inserted, and applies it with Refresh — a full rebuild.
func BenchmarkDynamicSingleEdgeRefresh(b *testing.B) {
	g := graph.CopyingModel(3000, 6, 0.3, 4)
	p := DefaultParams()
	p.Seed = 1
	d := NewDynamicFrom(g, p)
	defer d.Close()
	if err := d.Refresh(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := uint32((i/2*17 + 11) % 2999)
		if i%2 == 0 {
			d.AddEdge(u, u+1)
		} else {
			d.RemoveEdge(u, u+1)
		}
		if err := d.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}
