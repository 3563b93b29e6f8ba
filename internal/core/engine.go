package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Engine is the builder side of the system: it wraps a Snapshot and runs
// the preprocess (the candidate index of Algorithm 4) that fills it. Every
// query method lives on the embedded Snapshot, so an Engine answers
// queries directly; once the preprocess results are final, Seal returns
// the Snapshot for read-only publication (see DynamicEngine).
type Engine struct {
	*Snapshot
}

// Build runs the preprocess of Section 7.1 — the candidate index of
// Algorithm 4; Algorithm 3's γ table is not built (DegreeBound replaces its
// bound) — and returns a query-ready engine. Cost is O(n·PQ·T) walk steps,
// parallelized over Params.Workers.
func Build(g *graph.Graph, p Params) *Engine {
	e := New(g, p)
	e.Preprocess()
	return e
}

// New returns an engine without running the preprocess. SinglePair works
// immediately; TopK and Threshold queries require Preprocess first unless
// Params.Strategy is CandidatesBall or CandidatesLinear.
func New(g *graph.Graph, p Params) *Engine {
	return &Engine{Snapshot: newSnapshot(g, p)}
}

// Preprocess builds the candidate index (Algorithm 4) unless the strategy
// reads none (CandidatesBall, CandidatesLinear). It may be called again
// after parameter changes, but never on a sealed (published) snapshot.
func (e *Engine) Preprocess() {
	if e.sealed {
		panic("core: Preprocess on a sealed snapshot")
	}
	start := time.Now()
	if e.p.Strategy.needsIndex() {
		e.buildIndex()
	}
	e.stats.IndexTime = time.Since(start)
	e.stats.IndexBytes = e.idx.bytes()
}

// Seal marks the preprocess results final and returns the snapshot for
// read-only sharing. The engine must not preprocess again afterwards;
// the returned snapshot is safe to publish to concurrent readers.
func (e *Engine) Seal() *Snapshot {
	e.sealed = true
	return e.Snapshot
}

// phase salts keep the RNG streams of the preprocess pass and the
// per-candidate scoring streams disjoint (and reproducible per vertex
// regardless of worker count).
const (
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

// candSeed derives the per-candidate scoring seed for candidate v, from
// which each of its walks gets a stream of its own (walkSeed). Seeding
// per vertex (not per query or per (u,v) pair) makes the candidate's
// walks — and therefore its score against a query side — a pure function
// of the snapshot, whichever shard, lane or block scores it. The seed
// stays independent of evaluation order and Params.Workers, and saltScore
// keeps the streams disjoint from the index preprocess's (saltIndex) and
// from pairSeed's unsalted streams.
func (e *Snapshot) candSeed(v uint32) uint64 {
	return e.p.Seed ^ saltScore ^ rng.Mix(uint64(v))
}

// walkSeed is the seed of walk i of the candidate whose seed is cand
// (candSeed). One stream per walk makes a walk's first s steps the same
// however far it runs, so a query walks only the steps its horizon reads
// (candWalks), and the rough pass's walks are the first RRough of the
// refined estimate's.
func walkSeed(cand uint64, i int) uint64 {
	return rng.Mix(cand + uint64(i))
}

// vertexChunk is how many vertices a preprocess worker claims at a time: a
// multiple of indexLanes, so only a list's last chunk has a ragged
// lane group, and small enough that the costly neighbourhoods of a skewed
// graph spread over every worker.
const vertexChunk = 256

// parallelVertices runs fn over every vertex in chunks of vertexChunk
// consecutive ids, each chunk on a pooled scratch. The chunks go through
// the one worker pool (forEachIndexParallel): Params.Workers goroutines
// claim them from a shared cursor, so a worker that drew cheap vertices
// takes on more of them.
// Every preprocess pass seeds its streams per vertex (vertexSeed) and
// writes per-vertex outputs, so results are independent of the worker
// count and of which worker ran which chunk.
func (e *Engine) parallelVertices(fn func(chunk []uint32, s *scratch)) {
	vs := make([]uint32, e.g.N())
	for v := range vs {
		vs[v] = uint32(v)
	}
	chunks := (len(vs) + vertexChunk - 1) / vertexChunk
	// Without a context the pool cannot fail.
	_ = e.forEachIndexParallel(context.Background(), chunks, func(c int) {
		s := e.getScratch()
		defer e.putScratch(s)
		fn(vs[c*vertexChunk:min((c+1)*vertexChunk, len(vs))], s)
	})
}

func (e *Engine) String() string {
	return fmt.Sprintf("core.Engine{%v, c=%.2f, T=%d}", e.g, e.p.C, e.p.T)
}
