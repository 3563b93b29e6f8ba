package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Engine is the builder side of the system: it wraps a Snapshot and runs
// the preprocess passes (the γ table of Algorithm 3 and the candidate
// index of Algorithm 4) that fill it. Every query method lives on the
// embedded Snapshot, so an Engine answers queries directly; once the
// preprocess results are final, Seal returns the Snapshot for read-only
// publication (see DynamicEngine).
type Engine struct {
	*Snapshot
}

// Build runs the full preprocess of Section 7.1 — the γ table of
// Algorithm 3 and the candidate index of Algorithm 4 — and returns a
// query-ready engine. Cost is O(n·(R+PQ)·T) walk steps, parallelized
// over Params.Workers.
func Build(g *graph.Graph, p Params) *Engine {
	e := New(g, p)
	e.Preprocess()
	return e
}

// New returns an engine without running the preprocess. SinglePair works
// immediately; TopK and Threshold queries require Preprocess first unless
// Params.Strategy is CandidatesBall and the L2 bound is disabled.
func New(g *graph.Graph, p Params) *Engine {
	return &Engine{Snapshot: newSnapshot(g, p)}
}

// Preprocess computes the γ table (Algorithm 3) and the candidate index
// (Algorithm 4). It may be called again after parameter changes, but
// never on a sealed (published) snapshot.
func (e *Engine) Preprocess() {
	if e.sealed {
		panic("core: Preprocess on a sealed snapshot")
	}
	start := time.Now()
	if !e.p.DisableL2 {
		e.gamma = make([]float32, e.g.N()*e.p.T)
		e.computeGammaRows(nil)
	}
	e.stats.GammaTime = time.Since(start)

	start = time.Now()
	if e.p.Strategy != CandidatesBall {
		e.buildIndex()
	}
	e.stats.IndexTime = time.Since(start)

	e.stats.IndexBytes = int64(len(e.gamma)) * 4
	if e.idx != nil {
		e.stats.IndexBytes += e.idx.bytes()
	}
}

// Seal marks the preprocess results final and returns the snapshot for
// read-only sharing. The engine must not preprocess again afterwards;
// the returned snapshot is safe to publish to concurrent readers.
func (e *Engine) Seal() *Snapshot {
	e.sealed = true
	return e.Snapshot
}

// phase salts keep the RNG streams of the preprocess passes and the
// per-candidate scoring streams disjoint (and reproducible per vertex
// regardless of worker count or whether a vertex is recomputed
// incrementally).
const (
	saltGamma = 0x6a09e667f3bcc909
	saltIndex = 0xbb67ae8584caa73b
	saltScore = 0xa54ff53a5f1d36f1
)

// vertexSeed derives the deterministic RNG seed for one vertex in one
// preprocess phase.
func (e *Snapshot) vertexSeed(phase uint64, v uint32) uint64 {
	return e.p.Seed ^ phase ^ (0x9e3779b97f4a7c15 * uint64(v+1))
}

// pairSeed derives the deterministic RNG seed for the ordered pair (u, v).
// The pair is packed into one 64-bit word and mixed through a splitmix64
// finalizer, so distinct pairs get distinct, well-separated streams. (The
// previous scheme hashed u ^ (v<<1), which collides for families like
// (0,1)/(2,0): any pairs with equal u⊕(v<<1) shared a walk stream.)
func (e *Snapshot) pairSeed(u, v uint32) uint64 {
	return e.p.Seed ^ rng.Mix(uint64(u)<<32|uint64(v))
}

// candSeed derives the per-candidate scoring seed for candidate v.
// Seeding per vertex (not per query or per (u,v) pair) makes the
// candidate's walk stream — and therefore its step-t position tally — a
// pure function of the snapshot, which is what lets the tally cache
// (cache.go) share one simulation across every query that scores v. The
// seed stays independent of evaluation order and Params.Workers, and
// saltScore keeps the stream disjoint from the preprocess phases
// (saltGamma, saltIndex) and from pairSeed's unsalted streams.
func (e *Snapshot) candSeed(v uint32) uint64 {
	return e.p.Seed ^ saltScore ^ rng.Mix(uint64(v))
}

// vertexChunk is how many vertices a preprocess worker claims at a time: a
// multiple of indexLanes, so only a list's last chunk has a ragged
// lane group, and small enough that the costly neighbourhoods of a skewed
// graph spread over every worker.
const vertexChunk = 256

// parallelVertices runs fn over the vertices vs — every vertex when vs is
// nil — in chunks of vertexChunk consecutive entries. Params.Workers
// goroutines claim the chunks from a shared cursor, each on its own
// scratch, so a worker that drew cheap vertices takes on more of them.
// Every preprocess pass seeds its streams per vertex (vertexSeed) and
// writes per-vertex outputs, so results are independent of the worker
// count and of which worker ran which chunk.
func (e *Engine) parallelVertices(vs []uint32, fn func(chunk []uint32, s *scratch)) {
	if vs == nil {
		vs = make([]uint32, e.g.N())
		for v := range vs {
			vs[v] = uint32(v)
		}
	}
	chunks := (len(vs) + vertexChunk - 1) / vertexChunk
	claim := func(s *scratch, cursor *atomic.Int64) {
		for c := int(cursor.Add(1) - 1); c < chunks; c = int(cursor.Add(1) - 1) {
			fn(vs[c*vertexChunk:min((c+1)*vertexChunk, len(vs))], s)
		}
	}
	var cursor atomic.Int64
	workers := min(e.p.Workers, chunks)
	if workers <= 1 {
		s := e.getScratch()
		defer e.putScratch(s)
		claim(s, &cursor)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.getScratch()
			defer e.putScratch(s)
			claim(s, &cursor)
		}()
	}
	wg.Wait()
}

// queryRNG returns the deterministic RNG stream for queries at vertex u.
func (e *Snapshot) queryRNG(u uint32) *rng.Source {
	return rng.New(e.p.Seed ^ 0xd1b54a32d192ed03 ^ (0xbf58476d1ce4e5b9 * uint64(u+1)))
}

func (e *Engine) String() string {
	return fmt.Sprintf("core.Engine{%v, c=%.2f, T=%d}", e.g, e.p.C, e.p.T)
}
