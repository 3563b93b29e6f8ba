package simrank

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
)

// Options tunes the similarity search. Zero fields take the paper's
// defaults (Section 8): c = 0.6, T = 11, R = 100, P = 10, Q = 5,
// θ = 0.01.
type Options struct {
	// DecayFactor is SimRank's c in (0, 1). Default 0.6.
	DecayFactor float64
	// Steps is the walk length / series truncation T. Default 11.
	Steps int
	// Samples is the number of Monte-Carlo walk pairs per refined
	// single-pair estimate. Default 100.
	Samples int
	// RoughSamples is the adaptive first-pass sample count. Default 10.
	RoughSamples int
	// BoundSamples is the walk count of the query-side distribution, which
	// scores every candidate: a query first tries to push that
	// distribution exactly within BoundSamples/4 in-edge relaxations and
	// samples this many walks only where the push does not fit (around
	// hubs). The per-query L1 bound is read from the same distribution
	// where a plan has one, i.e. under Exhaustive. Default 10000.
	BoundSamples int
	// IndexTrials (P) and IndexWalks (Q) control candidate-index
	// construction. Defaults 10 and 5.
	IndexTrials int
	IndexWalks  int
	// Threshold prunes vertices whose score upper bound falls below it.
	// Default 0.01; pass a tiny positive value (e.g. 1e-12) to
	// effectively disable pruning by score.
	Threshold float64
	// Exhaustive switches candidate enumeration from the random-walk
	// index to the full distance-DMax ball (slower, higher recall). Only
	// then does a query walk that ball and bound candidates by distance
	// and the L1 table as well; index candidates are bounded by their
	// in-degree alone.
	Exhaustive bool
	// ExactScores replaces Monte-Carlo candidate scores with a
	// deterministic sparse series evaluation wherever the exact push that
	// builds the query side (BoundSamples/4 in-edge relaxations) reaches
	// on the candidate side too — it does on web-like graphs — eliminating
	// sampling noise at some query-time cost. Falls back to sampling
	// around hubs.
	ExactScores bool
	// CacheBytes bounds the per-index cross-query tally cache: candidate
	// walk tallies are pure functions of the index state, so queries
	// that revisit a candidate reuse its simulation instead of redoing
	// it. 0 disables the cache. Results are byte-identical with the
	// cache on or off; only throughput changes.
	CacheBytes int64
	// PrologCacheBytes bounds the per-index cache of query plans: the
	// sampled walk distribution of a query and its bound-sorted candidate
	// list are pure functions of (index, query vertex), so repeat queries
	// — and every shard of a distributed deployment answering the same
	// query — skip everything a query does before it scores a candidate.
	// 0 means the default (32 MiB); negative disables it. Results are
	// byte-identical either way.
	PrologCacheBytes int64
	// Seed makes all Monte-Carlo components deterministic. Default 1.
	Seed uint64
	// Workers bounds parallelism: the preprocess and all-pairs modes
	// shard vertices across this many goroutines, and a single TopK /
	// Similar query fans its candidate scoring out over them (results are
	// identical for any worker count — every candidate's walks come from
	// its own deterministic RNG stream). Default: GOMAXPROCS.
	Workers int
}

// DefaultOptions returns the paper's experiment configuration.
func DefaultOptions() Options { return Options{} }

// toParams maps Options onto the internal parameter set.
func (o Options) toParams() core.Params {
	p := core.Params{
		C:           o.DecayFactor,
		T:           o.Steps,
		RScore:      o.Samples,
		RRough:      o.RoughSamples,
		RAlpha:      o.BoundSamples,
		P:           o.IndexTrials,
		Q:           o.IndexWalks,
		Theta:       o.Threshold,
		CacheBytes:  o.CacheBytes,
		PrologBytes: o.PrologCacheBytes,
		Seed:        o.Seed,
		Workers:     o.Workers,
	}
	if o.Seed == 0 {
		p.Seed = 1
	}
	if o.Exhaustive {
		p.Strategy = core.CandidatesBall
	}
	p.ExactScoring = o.ExactScores
	return p
}

// Result pairs a vertex with its estimated SimRank score, descending by
// score in all query outputs. The JSON keys are the HTTP API's: the
// serving tiers send results as they are.
type Result struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// Index is a preprocessed similarity-search index over one graph. The
// underlying state is an immutable snapshot sealed at build time, so any
// number of goroutines may query one Index concurrently with no locking.
//
// Every query has a context-aware *Ctx variant that observes
// cancellation and deadlines between candidate-scoring blocks; the plain
// methods are wrappers over context.Background().
type Index struct {
	g *Graph
	e *core.Snapshot
}

// IndexStats reports preprocess cost. PreprocessTime is IndexTime, the
// time of the Algorithm 4 candidate index, the preprocess's only pass.
type IndexStats struct {
	PreprocessTime time.Duration
	IndexTime      time.Duration
	IndexBytes     int64
}

// BuildIndex runs the O(n) preprocess (the candidate index) and returns a
// query-ready index.
func BuildIndex(g *Graph, opts Options) *Index {
	return &Index{g: g, e: core.Build(g.g, opts.toParams()).Seal()}
}

// Stats returns preprocess cost statistics.
func (ix *Index) Stats() IndexStats {
	s := ix.e.Stats()
	return IndexStats{
		PreprocessTime: s.IndexTime,
		IndexTime:      s.IndexTime,
		IndexBytes:     s.IndexBytes,
	}
}

// Graph returns the indexed graph.
func (ix *Index) Graph() *Graph { return ix.g }

// TopK returns the k vertices most similar to u, best first. Fewer than
// k results are returned when fewer candidates clear the threshold.
func (ix *Index) TopK(u, k int) ([]Result, error) {
	return ix.TopKCtx(context.Background(), u, k)
}

// TopKCtx is TopK with cancellation: the query checks ctx between
// candidate-scoring blocks and returns ctx.Err() promptly once it is
// cancelled or past its deadline. Results for an uncancelled context are
// byte-identical to TopK.
func (ix *Index) TopKCtx(ctx context.Context, u, k int) ([]Result, error) {
	if err := ix.g.checkVertex(u); err != nil {
		return nil, err
	}
	res, err := ix.e.TopKCtx(ctx, uint32(u), k)
	if err != nil {
		return nil, err
	}
	return toResults(res), nil
}

// QueryStats reports what the pruning machinery did during one query:
// candidates enumerated, cut by the upper bounds, cut by the rough
// estimate, refined, and the tally cache's part in it.
type QueryStats = core.QueryStats

// CacheStats reports one cross-query cache's lifetime counters and current
// footprint. All fields are zero for a disabled cache; the Built* plan
// counters are the prolog cache's only.
type CacheStats = core.CacheStats

// CacheStats reports the index's tally-cache counters.
func (ix *Index) CacheStats() CacheStats { return ix.e.CacheStats() }

// PrologStats reports the query-prolog-cache counters (same shape as
// CacheStats); all zero when Options.PrologCacheBytes is negative.
func (ix *Index) PrologStats() CacheStats { return ix.e.PrologStats() }

// TopKWithStats is TopK plus pruning statistics, for tuning and
// observability.
func (ix *Index) TopKWithStats(u, k int) ([]Result, QueryStats, error) {
	return ix.TopKWithStatsCtx(context.Background(), u, k)
}

// TopKWithStatsCtx is TopKWithStats with cancellation (see TopKCtx).
func (ix *Index) TopKWithStatsCtx(ctx context.Context, u, k int) ([]Result, QueryStats, error) {
	if err := ix.g.checkVertex(u); err != nil {
		return nil, QueryStats{}, err
	}
	res, st, err := ix.e.TopKStatsCtx(ctx, uint32(u), k)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return toResults(res), st, nil
}

// TopKBatch answers many top-k queries at once, fanning them over
// Options.Workers whole-query workers that share the index's tally
// cache. Results (and per-query statistics) are identical to issuing
// each query individually; batching only changes throughput.
func (ix *Index) TopKBatch(us []int, k int) ([][]Result, error) {
	res, _, err := ix.TopKBatchWithStatsCtx(context.Background(), us, k)
	return res, err
}

// TopKBatchCtx is TopKBatch with cancellation, observed between queries
// and between candidate-scoring blocks within each query.
func (ix *Index) TopKBatchCtx(ctx context.Context, us []int, k int) ([][]Result, error) {
	res, _, err := ix.TopKBatchWithStatsCtx(ctx, us, k)
	return res, err
}

// TopKBatchWithStatsCtx is TopKBatchCtx plus per-query pruning and cache
// statistics.
func (ix *Index) TopKBatchWithStatsCtx(ctx context.Context, us []int, k int) ([][]Result, []QueryStats, error) {
	qs := make([]uint32, len(us))
	for i, u := range us {
		if err := ix.g.checkVertex(u); err != nil {
			return nil, nil, err
		}
		qs[i] = uint32(u)
	}
	res, sts, err := ix.e.TopKBatchCtx(ctx, qs, k)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]Result, len(res))
	for i, r := range res {
		out[i] = toResults(r)
	}
	return out, sts, nil
}

// Similar returns every vertex whose estimated SimRank score with u is at
// least threshold, best first.
func (ix *Index) Similar(u int, threshold float64) ([]Result, error) {
	return ix.SimilarCtx(context.Background(), u, threshold)
}

// SimilarCtx is Similar with cancellation (see TopKCtx).
func (ix *Index) SimilarCtx(ctx context.Context, u int, threshold float64) ([]Result, error) {
	if err := ix.g.checkVertex(u); err != nil {
		return nil, err
	}
	res, err := ix.e.ThresholdCtx(ctx, uint32(u), threshold)
	if err != nil {
		return nil, err
	}
	return toResults(res), nil
}

// SinglePair estimates the (truncated) SimRank score between u and v by
// Monte-Carlo simulation, in O(T·R) time independent of graph size.
func (ix *Index) SinglePair(u, v int) (float64, error) {
	return ix.SinglePairCtx(context.Background(), u, v)
}

// SinglePairCtx is SinglePair with cancellation, checked once on entry
// (a single-pair estimate is one bounded unit of work).
func (ix *Index) SinglePairCtx(ctx context.Context, u, v int) (float64, error) {
	if err := ix.g.checkVertex(u); err != nil {
		return 0, err
	}
	if err := ix.g.checkVertex(v); err != nil {
		return 0, err
	}
	if u == v {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 1, nil
	}
	return ix.e.SinglePairCtx(ctx, uint32(u), uint32(v))
}

// AllTopK runs the top-k search for every vertex in parallel and returns
// one row per vertex. Space is O(m + k·n).
func (ix *Index) AllTopK(k int) [][]Result {
	rows := ix.e.AllTopK(k)
	out := make([][]Result, len(rows))
	for i, r := range rows {
		out[i] = toResults(r)
	}
	return out
}

// JoinPair is one result of SimilarityJoin, with U < V.
type JoinPair struct {
	U, V  int
	Score float64
}

// SimilarityJoin finds every unordered vertex pair whose estimated
// SimRank score is at least threshold, strongest first. maxPairs caps the
// output (0 = unlimited). This runs a threshold query per vertex in
// parallel: expect all-pairs cost on large graphs.
func (ix *Index) SimilarityJoin(threshold float64, maxPairs int) []JoinPair {
	out, _ := ix.SimilarityJoinCtx(context.Background(), threshold, maxPairs)
	return out
}

// SimilarityJoinCtx is SimilarityJoin with cancellation: the per-vertex
// threshold queries stop once ctx is cancelled and the call returns
// ctx.Err() with no partial output.
func (ix *Index) SimilarityJoinCtx(ctx context.Context, threshold float64, maxPairs int) ([]JoinPair, error) {
	pairs, err := ix.e.SimilarityJoinCtx(ctx, threshold, maxPairs)
	if err != nil {
		return nil, err
	}
	out := make([]JoinPair, len(pairs))
	for i, p := range pairs {
		out[i] = JoinPair{U: int(p.U), V: int(p.V), Score: p.Score}
	}
	return out, nil
}

func toResults(xs []core.Scored) []Result {
	out := make([]Result, len(xs))
	for i, s := range xs {
		out[i] = Result{Node: int(s.V), Score: s.Score}
	}
	return out
}

// ExactSingleSource computes the deterministic truncated-series SimRank
// scores from u to every vertex with D = (1−c)·I, in O(T·(n+m)) time.
// Useful as ground truth and for small-to-medium graphs.
func ExactSingleSource(g *Graph, opts Options, u int) ([]float64, error) {
	if err := g.checkVertex(u); err != nil {
		return nil, err
	}
	p := opts.toParams()
	d := exact.UniformDiagonal(g.g.N(), paramC(p.C))
	return exact.SingleSource(g.g, d, paramC(p.C), paramT(p.T), uint32(u)), nil
}

// ExactTopK ranks vertices by the deterministic truncated series.
func ExactTopK(g *Graph, opts Options, u, k int) ([]Result, error) {
	row, err := ExactSingleSource(g, opts, u)
	if err != nil {
		return nil, err
	}
	top := exact.TopK(row, uint32(u), k)
	out := make([]Result, len(top))
	for i, s := range top {
		out[i] = Result{Node: int(s.V), Score: s.Score}
	}
	return out, nil
}

// ExactAllPairs computes converged SimRank for every pair with the
// partial-sums iteration. O(n²) memory: small graphs only.
func ExactAllPairs(g *Graph, c float64, iterations int) [][]float64 {
	if c <= 0 || c >= 1 {
		c = 0.6
	}
	if iterations <= 0 {
		iterations = exact.IterationsFor(c, 1e-4)
	}
	m := exact.PartialSumsAllPairs(g.g, c, iterations)
	out := make([][]float64, m.N)
	for i := 0; i < m.N; i++ {
		row := make([]float64, m.N)
		copy(row, m.Row(i))
		out[i] = row
	}
	return out
}

func paramC(c float64) float64 {
	if c <= 0 || c >= 1 {
		return 0.6
	}
	return c
}

func paramT(t int) int {
	if t <= 0 {
		return 11
	}
	return t
}
