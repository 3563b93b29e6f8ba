package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Params.Workers must be invisible in the output: it sizes the worker
// pool the preprocess's chunks run in, and every vertex seeds its own
// streams, so for a fixed seed results AND stats are identical for any
// worker count.
func TestTopKIdenticalAcrossWorkers(t *testing.T) {
	g := graph.CopyingModel(5000, 6, 0.3, 21)
	build := func(workers int) *Engine {
		p := DefaultParams()
		p.Seed = 17
		p.Workers = workers
		return Build(g, p)
	}
	base := build(1)
	queries := []uint32{0, 5, 17, 53, 999, 2500, 4999}
	requireAllClasses(t, "workers", base.Snapshot, queries)
	type result struct {
		res   []Scored
		stats QueryStats
	}
	want := make([]result, len(queries))
	for i, u := range queries {
		res, stats := base.TopKStats(u, 20)
		want[i] = result{res, stats}
	}
	for _, workers := range []int{2, 3, 5, 8} {
		e := build(workers)
		for i, u := range queries {
			res, stats := e.TopKStats(u, 20)
			if stats != want[i].stats {
				t.Fatalf("workers=%d u=%d: stats %+v, want %+v", workers, u, stats, want[i].stats)
			}
			if len(res) != len(want[i].res) {
				t.Fatalf("workers=%d u=%d: %d results, want %d", workers, u, len(res), len(want[i].res))
			}
			for j := range res {
				if res[j] != want[i].res[j] {
					t.Fatalf("workers=%d u=%d: result %d = %+v, want %+v",
						workers, u, j, res[j], want[i].res[j])
				}
			}
		}
	}
}

// Threshold queries (k = 0, no kth-score floor) must be worker-count
// independent too.
func TestThresholdIdenticalAcrossWorkers(t *testing.T) {
	g := graph.Collaboration(800, 5, 0.8, 40, 7)
	build := func(workers int) *Engine {
		p := DefaultParams()
		p.Seed = 4
		p.Workers = workers
		p.RAlpha = 1000
		return Build(g, p)
	}
	a := build(1)
	b := build(8)
	for u := uint32(0); u < 10; u++ {
		ra := a.Threshold(u, 0.02)
		rb := b.Threshold(u, 0.02)
		if len(ra) != len(rb) {
			t.Fatalf("u=%d: %d vs %d results", u, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("u=%d: result %d differs: %+v vs %+v", u, i, ra[i], rb[i])
			}
		}
	}
}

// pairSeed must give distinct walk streams to distinct pairs. The old
// derivation hashed u ^ (v<<1), which collides whenever two pairs share
// that XOR — e.g. (0,1) and (2,0) — silently correlating their estimates.
func TestPairSeedDistinctStreams(t *testing.T) {
	e := New(graph.Cycle(16), DefaultParams())
	type pair struct{ u, v uint32 }
	pairs := []pair{
		{0, 1}, {2, 0}, // collided under u ^ (v<<1): both gave 2
		{3, 1}, {1, 2},
		{1, 0}, {0, 2}, // ordered pairs are distinct too
		{5, 5}, {4, 7}, {7, 4},
	}
	seeds := map[uint64]pair{}
	for _, p := range pairs {
		s := e.pairSeed(p.u, p.v)
		if prev, ok := seeds[s]; ok {
			t.Fatalf("pairSeed collision: (%d,%d) and (%d,%d) -> %#x", prev.u, prev.v, p.u, p.v, s)
		}
		seeds[s] = p
	}
}

// candSeed is per vertex (the cacheable candidate seed) and each of its
// walks draws from a stream of its own (walkSeed): distinct vertices and
// distinct walks must get distinct streams, disjoint from every preprocess
// phase (phase salts) and from every pairSeed stream — a collision would
// correlate a candidate's cached tally with an unrelated walk computation,
// or two of its walks with each other.
func TestCandSeedPerVertexDisjoint(t *testing.T) {
	e := New(graph.Cycle(16), DefaultParams())
	seeds := map[uint64]string{}
	record := func(s uint64, what string) {
		if prev, ok := seeds[s]; ok {
			t.Fatalf("seed collision: %s and %s -> %#x", prev, what, s)
		}
		seeds[s] = what
	}
	for v := uint32(0); v < 16; v++ {
		record(e.candSeed(v), fmt.Sprintf("candSeed(%d)", v))
		for i := 0; i < e.p.RScore; i++ {
			record(walkSeed(e.candSeed(v), i), fmt.Sprintf("walkSeed(%d,%d)", v, i))
		}
	}
	// Phase-salt disjointness: the scoring stream of v must not collide
	// with v's index preprocess stream.
	for v := uint32(0); v < 16; v++ {
		record(e.vertexSeed(saltIndex, v), fmt.Sprintf("vertexSeed(index,%d)", v))
	}
	// And pairSeed streams stay disjoint from every candidate stream.
	for u := uint32(0); u < 8; u++ {
		for v := uint32(0); v < 8; v++ {
			record(e.pairSeed(u, v), fmt.Sprintf("pairSeed(%d,%d)", u, v))
		}
	}
}

// candSeed must not depend on the query vertex: the same candidate's
// walk stream — and therefore its cached tally — serves every query.
func TestCandSeedQueryIndependent(t *testing.T) {
	p := DefaultParams()
	p.Seed = 99
	e := New(graph.Cycle(8), p)
	want := e.p.Seed ^ saltScore ^ rng.Mix(uint64(5))
	if got := e.candSeed(5); got != want {
		t.Fatalf("candSeed(5) = %#x, want seed^saltScore^Mix(v) = %#x", got, want)
	}
	if got := walkSeed(want, 7); got != rng.Mix(want+7) {
		t.Fatalf("walkSeed(candSeed(5), 7) = %#x, want Mix(candSeed(5)+7) = %#x", got, rng.Mix(want+7))
	}
}

// SinglePair estimates for the formerly-colliding pairs must now come from
// independent streams: on a graph where both pairs have positive scores,
// the two estimates should not be byte-identical (they were, before, when
// both pairs hashed to the same stream and shared graph structure).
func TestSinglePairIndependentAcrossPairs(t *testing.T) {
	g := graph.Collaboration(40, 4, 0.9, 15, 3)
	e := testEngine(g, 7)
	// Distinct pairs with the same u ^ (v<<1) fingerprint.
	a := e.SinglePairR(0, 1, 200)
	b := e.SinglePairR(2, 0, 200)
	c := e.SinglePairR(0, 1, 200)
	if a != c {
		t.Fatalf("SinglePair not deterministic: %v vs %v", a, c)
	}
	_ = b // the real assertion is stream distinctness, checked above
}
