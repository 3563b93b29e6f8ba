package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Snapshot is the immutable query state of one engine: the graph and the
// bipartite candidate index of Algorithm 4.
// A Snapshot answers every query mode (TopK, Threshold, SinglePair,
// AllTopK, SimilarityJoin) without mutating itself, so any number of
// goroutines may share one Snapshot with no coordination at all — the
// only shared mutable state is the internal scratch pool, which is a
// sync.Pool plus two balance counters.
//
// A Snapshot is produced by an Engine (the builder): Build/Preprocess
// fill the preprocess artifacts, and Seal marks them final. Sealing is
// the publication point — DynamicEngine hands sealed snapshots to
// readers through an atomic.Pointer, and a sealed snapshot must never be
// preprocessed again (Preprocess panics).
type Snapshot struct {
	g *graph.Graph
	p Params

	// wt is the uniform walk table every walk kernel samples through —
	// built once per snapshot in O(1): it aliases the graph's in-CSR.
	wt *graph.WalkTable

	// distBounds holds the constants of DistanceBound, DegreeBound and the
	// horizon's tolerance; they depend on Params alone (bounds.go).
	distBounds

	// idx is the bipartite candidate index H from Algorithm 4:
	// idx lists each left vertex's right-neighbours; inv is the
	// inverted (right -> left) direction used for candidate joins.
	idx *candidateIndex

	// rows is the cross-query row cache CacheBytes bounds: query rows at
	// the serving Theta keyed by query vertex (linear.go); nil when
	// CacheBytes is 0 or the strategy is not CandidatesLinear. Shared by
	// every query against this snapshot; it holds derived, deterministic
	// data only, so the snapshot stays logically immutable.
	rows *clockCache[[]boundedCand]

	// prolog caches the query plan per vertex — the query-side walk
	// distribution and the bound-sorted candidate list (prolog.go); nil
	// when Params.PrologBytes is negative. Like rows, it holds derived,
	// deterministic data only. built counts the entries offered to it by
	// the builder of their distribution (builtPushed, builtEmpty) and stepsKept sums
	// their horizons.
	prolog    *clockCache[prolog]
	built     [2]atomic.Int64
	stepsKept atomic.Int64

	// pool recycles query/preprocess scratch buffers (see scratch.go).
	// poolGets/poolPuts count acquire/release round trips; they must be
	// equal whenever no query is in flight (the cancellation tests assert
	// this, and a drift indicates a leaked scratch on some return path).
	pool     sync.Pool
	poolGets atomic.Int64
	poolPuts atomic.Int64

	// sealed marks the snapshot as published read-only state.
	sealed bool

	stats PreprocessStats
}

// PreprocessStats records the cost of the preprocess.
type PreprocessStats struct {
	// GammaTime is always 0: Algorithm 3's γ table is no longer built. It
	// stays until the benchmark's core.gamma_ms layer, which reads it, is
	// dropped.
	GammaTime time.Duration
	IndexTime time.Duration
	// IndexBytes approximates the memory footprint of the candidate index.
	IndexBytes int64
}

func newSnapshot(g *graph.Graph, p Params) *Snapshot {
	sn := &Snapshot{g: g, p: p.normalized(), wt: g.BuildWalkTable()}
	sn.distBounds = newDistBounds(&sn.p)
	n := g.N()
	sn.pool.New = func() any { return newScratch(n) }
	linear := sn.p.Strategy == CandidatesLinear
	if sn.p.CacheBytes > 0 && linear {
		sn.rows = newClockCache[[]boundedCand](n, sn.p.CacheBytes)
	}
	if sn.p.PrologBytes > 0 && !linear {
		sn.prolog = newClockCache[prolog](n, sn.p.PrologBytes)
	}
	return sn
}

// Graph returns the snapshot's graph.
func (e *Snapshot) Graph() *graph.Graph { return e.g }

// WalkTable returns the snapshot's uniform walk table.
func (e *Snapshot) WalkTable() *graph.WalkTable { return e.wt }

// Params returns the snapshot's normalized parameters.
func (e *Snapshot) Params() Params { return e.p }

// Stats returns preprocess cost statistics.
func (e *Snapshot) Stats() PreprocessStats { return e.stats }

// Sealed reports whether the snapshot has been sealed for publication.
func (e *Snapshot) Sealed() bool { return e.sealed }

// CacheStats reports the row-cache counters; all zero when that cache is
// disabled, as it is under every strategy but CandidatesLinear.
func (e *Snapshot) CacheStats() CacheStats { return e.rows.stats() }

// PrologStats reports the query-prolog-cache counters; all zero when
// that cache is disabled.
func (e *Snapshot) PrologStats() CacheStats {
	st := e.prolog.stats()
	st.BuiltPushed = e.built[builtPushed].Load()
	st.BuiltEmpty = e.built[builtEmpty].Load()
	st.StepsKept = e.stepsKept.Load()
	return st
}

// PoolBalance reports the scratch-pool acquire/release counters; they are
// equal whenever no query is in flight. Exposed for tests and leak
// diagnostics.
func (e *Snapshot) PoolBalance() (gets, puts int64) {
	return e.poolGets.Load(), e.poolPuts.Load()
}
