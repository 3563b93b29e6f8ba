// Package core implements the paper's contribution: Monte-Carlo top-k
// SimRank similarity search based on the linear recursive formulation.
//
// The pieces map to the paper as follows:
//
//   - Algorithm 1 (Monte-Carlo single-pair SimRank)       -> singlepair.go
//   - Algorithm 2 (α/β computation, the L1 bound)         -> bounds.go
//   - in-degree bound (replaces Algorithm 3's L2 bound)   -> bounds.go
//   - Algorithm 4 (preprocess: bipartite candidate index) -> index.go
//   - Algorithm 5 (query: prune + adaptive sampling)      -> query.go
//   - parallel all-vertices similarity search             -> allpairs.go
package core

import (
	"math"
	"runtime"

	"repro/internal/rng"
)

// CandidateStrategy selects how the query phase enumerates candidate
// vertices before pruning.
type CandidateStrategy int

const (
	// CandidatesIndex uses the bipartite random-walk index H of
	// Algorithm 4 (the paper's method).
	CandidatesIndex CandidateStrategy = iota
	// CandidatesBall enumerates every vertex within undirected distance
	// DMax of the query. Exhaustive and slower; used for ablations.
	CandidatesBall
	// CandidatesHybrid unions the index candidates with the distance-2
	// ball, trading a little query time for recall.
	CandidatesHybrid
	// CandidatesLinear enumerates nothing: a query computes its whole row
	// of the series deterministically, one thresholded push forward and one
	// pruned pass backward (linear.go), and every vertex at or above the
	// threshold is a candidate bounded by its own score. It reads no H and
	// draws no walk; the preprocess builds nothing.
	CandidatesLinear
)

// needsIndex reports whether the strategy reads the candidate index H.
func (s CandidateStrategy) needsIndex() bool {
	return s == CandidatesIndex || s == CandidatesHybrid
}

func (s CandidateStrategy) String() string {
	switch s {
	case CandidatesIndex:
		return "index"
	case CandidatesBall:
		return "ball"
	case CandidatesHybrid:
		return "hybrid"
	case CandidatesLinear:
		return "linear"
	default:
		return "unknown"
	}
}

// Params holds every tunable of the method. The zero value is not useful;
// start from DefaultParams. Field defaults follow Section 8 of the paper.
type Params struct {
	// C is the SimRank decay factor, in (0, 1). Paper experiments: 0.6.
	C float64
	// T is the number of series terms / walk steps. Paper: 11.
	T int
	// RScore is the number of walks for refined single-pair estimates
	// (Algorithm 1). Paper: 100.
	RScore int
	// RRough is the number of walks for the rough adaptive pass. Paper: 10.
	RRough int
	// RAlpha is the walk count the query-side distribution stands for: the
	// distribution that scores every candidate and that Algorithm 2's α/β
	// (L1) table is read from where a plan has one. It is pushed rather
	// than sampled, and a vertex is pushed on only while its share of the
	// mass per in-edge is at least 1/RAlpha, the mass one of RAlpha walks
	// would carry (bounds.go). Paper: 10000 walks.
	RAlpha int
	// P and Q control index construction (Algorithm 4): P independent
	// trials per vertex, each with one index walk W0 and Q collision
	// walks. Paper: P = 10, Q = 5.
	P int
	Q int
	// Theta is the score threshold below which the search is cut off.
	// Paper: 0.01.
	Theta float64
	// DMax is the radius of the undirected ball the strategies that
	// enumerate from it (CandidatesBall, CandidatesHybrid) build around the
	// query, and the maximum distance their L1 bound considers; vertices
	// farther than DMax from the query are never top-k candidates in
	// practice. A CandidatesIndex plan builds no ball and does not read it.
	// Paper: DMax = T.
	DMax int
	// BallBudget bounds that BFS, keeping query work local on
	// high-expansion graphs: the search stops expanding once it has
	// visited this many vertices. The check precedes each expansion, not
	// each visit, so the ball overshoots by the last vertex's neighbours
	// (23 353 vertices at the default budget on the benchmark's web
	// graph). Candidates beyond the explored region simply fall back to
	// the degree bound. 0 means the default (20000); negative means
	// unlimited. Like DMax it applies to the ball strategies only.
	BallBudget int
	// Strategy selects the candidate enumeration method.
	Strategy CandidateStrategy
	// DisableL1 and DisableAdaptive switch off individual pruning
	// ingredients; used by the ablation benchmarks. DisableL1 drops
	// Algorithm 2's table from the plans that have one, those of the ball
	// strategies; under CandidatesIndex there is nothing for it to switch
	// off and the plan is the same either way.
	DisableL1       bool
	DisableAdaptive bool
	// D, when non-nil, supplies a custom diagonal correction matrix
	// (one entry per vertex). When nil the paper's approximation
	// D = (1−c)·I is used.
	D []float64
	// CacheBytes bounds the per-snapshot row cache of CandidatesLinear; 0
	// disables it. It holds query rows keyed by query vertex, each at the
	// serving Theta (linear.go). An entry is a pure function of the
	// snapshot and its vertex, so the cache changes which work is re-done,
	// never the results: query output is byte-identical with the cache on
	// or off. The Monte-Carlo strategies have no such cache, and under them
	// CacheBytes bounds nothing, as PrologBytes bounds nothing under
	// CandidatesLinear.
	CacheBytes int64
	// PrologBytes bounds the per-snapshot cache of query plans — query-side
	// walk distribution plus bound-sorted candidate list (prolog.go).
	// Both are pure functions of (snapshot, query vertex), so caching
	// them changes where that work happens, never any result. 0 means
	// the default (32 MiB); negative disables the cache. CandidatesLinear
	// neither allocates nor reads it: its plan is the row itself, which
	// CacheBytes caches.
	PrologBytes int64
	// Seed makes every Monte-Carlo component deterministic.
	Seed uint64
	// Workers is how many items run at once in the engine's one worker
	// pool: the preprocess's 256-vertex chunks, and the queries of
	// AllTopK, SimilarityJoin and TopKBatch. One query (TopK, Threshold,
	// a shard scan) always runs on its caller's
	// goroutine. Results are identical for any value. 0 means GOMAXPROCS.
	Workers int
}

// DefaultParams returns the parameter set used in the paper's experiments
// (Section 8).
func DefaultParams() Params {
	return Params{
		C:      0.6,
		T:      11,
		RScore: 100,
		RRough: 10,
		RAlpha: 10000,
		P:      10,
		Q:      5,
		Theta:  0.01,
		DMax:   11,
		Seed:   1,
	}
}

// normalized returns a copy with zero fields replaced by defaults and
// invalid fields clamped.
func (p Params) normalized() Params {
	def := DefaultParams()
	if p.C <= 0 || p.C >= 1 {
		p.C = def.C
	}
	if p.T <= 0 {
		p.T = def.T
	}
	if p.RScore <= 0 {
		p.RScore = def.RScore
	}
	if p.RRough <= 0 {
		p.RRough = def.RRough
	}
	if p.RRough > p.RScore {
		// The rough pass is served as a prefix of the refined walk
		// stream (scoreLanes), so it can never use more walks than the
		// refined estimate.
		p.RRough = p.RScore
	}
	if p.RAlpha <= 0 {
		p.RAlpha = def.RAlpha
	}
	if p.P <= 0 {
		p.P = def.P
	}
	if p.Q <= 0 {
		p.Q = def.Q
	}
	if p.Theta <= 0 {
		// A non-positive threshold takes the default; pass a tiny
		// positive value (e.g. 1e-12) to effectively disable it.
		p.Theta = def.Theta
	}
	if p.DMax <= 0 {
		p.DMax = p.T
	}
	if p.BallBudget == 0 {
		p.BallBudget = 20000
	}
	if p.PrologBytes == 0 {
		p.PrologBytes = 32 << 20
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// Fingerprint digests every result-affecting parameter into 64 bits,
// for shard manifests: two snapshots with equal graph fingerprint, equal
// Seed, and equal parameter fingerprint produce byte-identical query
// results, so a router refuses to merge fragments across mismatched
// fingerprints. CacheBytes, PrologBytes and Workers are deliberately
// excluded — all three change where work happens, never what a query
// returns (the determinism suite pins that invariant). planDef is included:
// two binaries that define a plan differently must not merge either.
func (p Params) Fingerprint() uint64 {
	p = p.normalized()
	h := uint64(0x5370a2c03f1e9d4b) // arbitrary non-zero basis
	mix := func(x uint64) { h = rng.Mix(h ^ x) }
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	mix(math.Float64bits(p.C))
	mix(uint64(p.T))
	mix(uint64(p.RScore))
	mix(uint64(p.RRough))
	mix(uint64(p.RAlpha))
	mix(uint64(p.P))
	mix(uint64(p.Q))
	mix(math.Float64bits(p.Theta))
	mix(uint64(p.DMax))
	mix(uint64(int64(p.BallBudget)))
	mix(uint64(p.Strategy))
	// The flag word's layout is part of every fingerprint: bit 0 stays
	// clear and the other flags keep their bits, or every deployed shard's
	// fingerprint moves (TestParamsFingerprintPinned).
	mix(bit(p.DisableL1)<<2 | bit(p.DisableAdaptive)<<1)
	mix(uint64(len(p.D)))
	for _, d := range p.D {
		mix(math.Float64bits(d))
	}
	mix(p.Seed)
	mix(planDef)
	return h
}

// planDef numbers the definitions of a query plan (buildPlan) this code has
// had, for Fingerprint: a shard ships each candidate's bound and the merge
// replays sortBounds' order from them (shard.go), so shards whose binaries
// bound a candidate differently would merge into an answer neither gives
// alone although their parameters agree. 2: an index-strategy plan has no
// ball and bounds by L2 alone (before: min(distance bound, β, L2)). 3: the
// query-side distribution stops at its horizon (bounds.go), so a score is
// up to c^T·max_w D_ww below what a plan of definition 2 serves and the
// rough and k-th cuts may fall differently. 4: a candidate is bounded by
// its in-degree (DegreeBound) where definition 3 used the L2 bound of
// Algorithm 3's γ table, so the scan order may differ. The fingerprint is
// not persisted; an index file saved with definition 3's γ section is
// refused by every loader as an unknown section (persist.go). 5: the
// query-side distribution is pushed wherever a vertex's share reaches
// 1/RAlpha, where definition 4 pushed it exactly under a relaxation budget
// and sampled RAlpha walks past it, so scores and the cuts may differ. 6:
// each candidate walk draws from a stream of its own (walkSeed), where
// definition 5 ran a candidate's walks one after another on one stream:
// the candidate walks are a new sample, so scores and the cuts differ. 7:
// the linear scorer's forward leaves each step in first-touch order
// (linearForwardInto), where definition 6 sorted it, so the backward pass
// sums every score in another order and a linear score may differ from
// definition 6's in its last bits. 8: the linear backward pass adds d ⊙ xₜ
// after each level's scatter (backwardInto), where definition 7 added it
// before, so a linear score may differ from definition 7's in its last bits.
const planDef = 8

// dval returns the diagonal correction entry for vertex w.
func (p *Params) dval(w uint32) float64 {
	if p.D != nil {
		return p.D[w]
	}
	return 1 - p.C
}
