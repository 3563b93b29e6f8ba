package core

import (
	"context"
	"slices"
)

// QueryStats reports what the pruning machinery did during one query. It
// is the one definition of those counters: the root package aliases it,
// the HTTP tiers serialize it as it is (the JSON keys below are the API's)
// and the wire codec ships its fields in this order.
type QueryStats struct {
	// Candidates enumerated before pruning.
	Candidates int `json:"candidates"`
	// PrunedByBound were cut by the L1/degree/distance upper bounds.
	PrunedByBound int `json:"pruned_by_bound"`
	// PrunedByRough were cut after the rough adaptive estimate.
	PrunedByRough int `json:"pruned_by_rough"`
	// Refined received the full RScore estimate.
	Refined int `json:"refined"`
	// The cross-query tally cache's part in this query, all zero when the
	// cache is disabled: candidate tallies served from it, tallies inserted
	// into it, and entries those inserts pushed out.
	CacheHits      int `json:"cache_hits"`
	CacheMisses    int `json:"cache_misses"`
	CacheEvictions int `json:"cache_evictions"`
}

// AddCache adds o's tally-cache counters to st: how the scoring workers of
// one block report theirs, and how a router sums its shards' — each shard
// has a cache of its own, so those counters add up where the scan counters
// are replayed.
func (st *QueryStats) AddCache(o QueryStats) {
	st.CacheHits += o.CacheHits
	st.CacheMisses += o.CacheMisses
	st.CacheEvictions += o.CacheEvictions
}

// boundedCand is a candidate with its upper bound, ready for sorting.
type boundedCand struct {
	v  uint32
	ub float64
}

// roughPruned is the adaptive cut of the paper's §7.2: a candidate whose
// rough RRough-walk estimate is "small" against the pruning floor is not
// worth its RScore walks. Every place that takes the verdict — the lane
// kernel, the tally-cache path, the scan re-taking it against a higher
// floor — calls this, so they cannot disagree about a candidate.
func roughPruned(rough, floor float64) bool {
	return rough < 0.3*floor
}

// scoreBlock is the number of bound-ordered candidates scored between two
// re-evaluations of the pruning floor. It is a fixed constant — NOT a
// function of Params.Workers — which is what makes parallel scoring
// deterministic: the floor each candidate observes depends only on the
// candidates in earlier blocks, never on scheduling. A racy shared floor
// would be tighter on average, but rough-prune decisions reading it would
// differ run to run; with 64-candidate blocks the floor staleness costs a
// few extra refinements per query while keeping results byte-identical
// across worker counts.
const scoreBlock = 64

// minParallelScore is the smallest block worth fanning out to goroutines.
const minParallelScore = 16

// TopK answers Problem 1: the k vertices most similar to u, best first.
// Requires a preprocessed engine (see Build).
func (e *Snapshot) TopK(u uint32, k int) []Scored {
	res, _ := e.TopKStats(u, k)
	return res
}

// TopKCtx is TopK with cancellation: the search checks ctx between
// candidate-scoring blocks and returns ctx.Err() as soon as it observes a
// cancelled or expired context, so abandoned requests stop burning walk
// budget. Results and statistics for an uncancelled context are
// byte-identical to TopK.
func (e *Snapshot) TopKCtx(ctx context.Context, u uint32, k int) ([]Scored, error) {
	res, _, err := e.search(ctx, u, k, e.p.Theta, e.p.Workers)
	return res, err
}

// TopKStats is TopK plus pruning statistics.
func (e *Snapshot) TopKStats(u uint32, k int) ([]Scored, QueryStats) {
	res, stats, _ := e.search(context.Background(), u, k, e.p.Theta, e.p.Workers)
	return res, stats
}

// TopKStatsCtx is TopKStats with cancellation (see TopKCtx).
func (e *Snapshot) TopKStatsCtx(ctx context.Context, u uint32, k int) ([]Scored, QueryStats, error) {
	return e.search(ctx, u, k, e.p.Theta, e.p.Workers)
}

// Threshold returns every vertex whose estimated score is at least theta,
// best first. This is the query mode used by the accuracy experiment
// (Section 8.2), where the paper counts recovered "high score" vertices.
func (e *Snapshot) Threshold(u uint32, theta float64) []Scored {
	res, _, _ := e.search(context.Background(), u, 0, theta, e.p.Workers)
	return res
}

// ThresholdCtx is Threshold with cancellation (see TopKCtx).
func (e *Snapshot) ThresholdCtx(ctx context.Context, u uint32, theta float64) ([]Scored, error) {
	res, _, err := e.search(ctx, u, 0, theta, e.p.Workers)
	return res, err
}

// search implements Algorithm 5 (QUERY). k == 0 means unlimited. workers
// is the candidate-scoring fan-out; callers that already parallelize
// across queries (AllTopK, SimilarityJoin, batch) pass 1 to avoid nested
// parallelism.
//
// Cancellation is checked once on entry and then between candidate-scoring
// blocks (never inside one), so a cancelled query returns ctx.Err()
// within one block's worth of work and the block-synchronous determinism
// argument is untouched. All scratch buffers are released on every return
// path (the deferred putScratch covers cancellation too).
func (e *Snapshot) search(ctx context.Context, u uint32, k int, theta float64, workers int) ([]Scored, QueryStats, error) {
	var stats QueryStats
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	qs := e.getScratch()
	defer e.putScratch(qs)

	pl := e.queryPlan(qs, u)
	wd, bs := pl.wd, pl.cands
	if cap(qs.scores) < scoreBlock {
		qs.scores = make([]ShardCand, scoreBlock)
	}
	res, err := scanOrdered(k, theta, len(bs), &stats,
		func(i int) float64 { return bs[i].ub },
		func(i, end int, floor float64) ([]ShardCand, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out := qs.scores[:end-i]
			e.scoreBlock(qs, bs[i:end], out, wd, floor, workers, &stats)
			return out, nil
		})
	return res, stats, err
}

// scanOrdered is Algorithm 5's scan, the one place a query's pruning
// decisions are taken. n candidates stand in descending bound order
// (sortBounds), bound(i) the i-th bound; they are taken a block at a time.
// The pruning floor max(theta, k-th best so far) is re-evaluated once per
// block, from fully merged results only — deterministic regardless of
// workers. The scan stops at the first bound below it and trims the block's
// tail below it, so nothing is scored that a sequential scan would have
// bound-pruned at this floor; outcomes(i, end, floor) then says what
// scoring candidates [i, end) gave. A single node scores them there and
// then (scoreBlock); a router hands back what the shards shipped, scored
// at the fixed floor theta, and the rough verdict is re-taken here against
// the floor the single node would have used (shard.go has the argument).
// Outcomes are merged in bound order, and a refined score enters the
// result at theta. k == 0 means unlimited. Scan counters go to stats; an
// error from outcomes ends the scan.
func scanOrdered(k int, theta float64, n int, stats *QueryStats, bound func(i int) float64,
	outcomes func(i, end int, floor float64) ([]ShardCand, error)) ([]Scored, error) {
	stats.Candidates = n
	acc := newTopKAcc(k)
	if k == 0 {
		acc = newTopKAcc(n) // unlimited: keep everything above theta
	}
	for i := 0; i < n; {
		floor := theta
		if k > 0 && acc.kth() > floor {
			floor = acc.kth()
		}
		if bound(i) < floor {
			stats.PrunedByBound += n - i
			break
		}
		end := min(i+scoreBlock, n)
		for end > i && bound(end-1) < floor {
			end--
		}
		block, err := outcomes(i, end, floor)
		if err != nil {
			return nil, err
		}
		for _, c := range block {
			if stats.note(c, floor) && c.Score >= theta {
				acc.add(Scored{c.V, c.Score})
			}
		}
		i = end
	}
	return acc.result(), nil
}

// note counts one scored candidate's outcome at a pruning floor and
// reports whether it was refined, i.e. whether c.Score is an estimate.
func (st *QueryStats) note(c ShardCand, floor float64) (refined bool) {
	switch {
	case c.State == ShardRoughPruned, c.State == ShardScored && roughPruned(c.Rough, floor):
		st.PrunedByRough++
	case c.State == ShardUnscored:
		// Unreachable for a well-formed scan: an unscored entry has a bound
		// below theta <= floor, so the cutoff or the tail trim excludes it.
		// Counted as bound-pruned rather than invented as a score.
		st.PrunedByBound++
	default:
		st.Refined++
		return true
	}
	return false
}

// queryPlan is what a scan knows before it scores its first candidate:
// the query-side walk distribution, and every candidate with its upper
// bound in sortBounds order. Both are pure functions of (snapshot, u) —
// prolog.go lists the inputs — so every scan mode takes them from here
// and, when the prolog cache holds them, from there.
type queryPlan struct {
	wd *walkDist
	// cands is read-only: on a cache hit it is the cached slice, shared
	// with every concurrent query at u. Shard scans copy their range out
	// of it (restrict); nothing may store it in a scratch.
	cands []boundedCand
}

// queryPlan returns the plan of a query at u: from the prolog cache when
// it is there, derived on qs otherwise (and published). A miss is priced
// by u's neighbourhood. Under CandidatesIndex the candidates need only H,
// so they come first, and a vertex that has none publishes an empty plan
// over a step-less distribution: no walks. Every other vertex gets its
// distribution from queryDistInto — Pᵗe_u pushed wherever a vertex's share
// reaches 1/RAlpha, cut at the horizon — and then its candidates' bounds,
// which only the strategies that enumerate from the ball pay a ball for
// (buildPlan).
func (e *Snapshot) queryPlan(qs *scratch, u uint32) queryPlan {
	if ent := e.cachedPlan(u); ent != nil {
		return queryPlan{wd: &ent.val.wd, cands: ent.val.plan}
	}
	byIndex := e.p.Strategy == CandidatesIndex
	if byIndex {
		e.collectCandidates(qs, u, nil, nil)
	}
	wd, h := &noDist, 0
	var bs []boundedCand
	if !byIndex || len(qs.cands) > 0 {
		wd = &qs.wd
		h = e.queryDistInto(wd, qs, u)
		bs = e.buildPlan(qs, u, wd)
	}
	if e.prolog != nil {
		e.built[builderOf(wd)].Add(1)
		e.stepsKept.Add(int64(h))
		e.prolog.put(newPrologEntry(u, wd, bs))
	}
	return queryPlan{wd: wd, cands: bs}
}

// cachedPlan looks u up in the prolog cache: the entry, or nil on a miss
// or without a cache. With it in hand a scan touches no graph before it
// scores.
//
//lint:hotpath prolog cache hit path, the whole pre-scoring cost of a warm query
func (e *Snapshot) cachedPlan(u uint32) *prologEntry {
	if e.prolog == nil {
		return nil
	}
	return e.prolog.get(u)
}

// buildPlan derives the bound-sorted candidate list of a query at u whose
// walk distribution is wd. The bounds that read distances ride on the
// strategies that build the ball: CandidatesBall and CandidatesHybrid
// enumerate from it, so they have it, and bound a candidate by
// min(distance bound, β, degree bound) — β read from wd as the plan has it,
// trimmed at the horizon, so it bounds the score the scan will serve rather
// than the T-term series (Snapshot.L1Bound is the one that bounds that).
// Under CandidatesIndex the caller has already enumerated qs.cands from H
// and there is no ball: a candidate's bound is its degree bound. A BFS to
// BallBudget (23 353 vertices on the benchmark's web graph) was the largest
// share of a miss, and what it bought cut 0.17 of 14.7 web and 17 of 318
// social candidates a query, which the rough pass cuts anyway — while β,
// one value per distance, flattened the order the per-candidate bound
// alone gives the scan (DESIGN.md §4 has the runs). The result aliases
// qs.bounds.
func (e *Snapshot) buildPlan(qs *scratch, u uint32, wd *walkDist) []boundedCand {
	var dist []int32
	var l1 *l1Table
	if e.p.Strategy != CandidatesIndex {
		// Local distances around the query. The ball budget keeps this BFS
		// local on high-expansion graphs; truncation only weakens the
		// L1/distance bounds (candidates fall back to the degree bound),
		// never correctness.
		dist = qs.distBuf()
		defer qs.resetDist()
		var truncated bool
		qs.ball, truncated = e.g.UndirectedBallInto(u, e.p.DMax, e.p.BallBudget, dist, qs.ball[:0])
		exploredRadius := e.p.DMax
		if truncated && len(qs.ball) > 0 {
			// BFS visits vertices in nondecreasing distance order, so the
			// last ball entry carries the deepest discovered level — which
			// may be incomplete when the budget cut the search short.
			exploredRadius = int(dist[qs.ball[len(qs.ball)-1]]) - 1
		}
		if !e.p.DisableL1 {
			l1 = e.computeL1From(qs, wd, dist, exploredRadius)
		}
		e.collectCandidates(qs, u, dist, qs.ball)
	}
	bs := qs.bounds[:0]
	for _, v := range qs.cands {
		bs = append(bs, boundedCand{v, e.candBound(v, dist, l1)})
	}
	qs.bounds = bs
	sortBounds(bs)
	return bs
}

// restrict copies the plan's candidates in the vertex range [lo, hi) into
// qs.bounds, keeping their order: the restriction of sortBounds' total
// order is the order of the restriction, which is all a shard's fragment
// and the merge need. (On a miss cands already is qs.bounds and the copy
// filters it in place.)
func (pl *queryPlan) restrict(qs *scratch, lo, hi uint32) []boundedCand {
	bs := qs.bounds[:0]
	for _, b := range pl.cands {
		if b.v >= lo && b.v < hi {
			bs = append(bs, b)
		}
	}
	qs.bounds = bs
	return bs
}

// candBound is the tightest upper bound available for candidate v of a
// query: its degree bound and, where the plan has a ball (dist is nil when
// it has none, l1 when the table is disabled), the distance and L1 bounds
// of its distance from the query.
func (e *Snapshot) candBound(v uint32, dist []int32, l1 *l1Table) float64 {
	ub := e.DegreeBound(v)
	if dist != nil && dist[v] >= 0 {
		d := int(dist[v])
		ub = min(ub, e.DistanceBound(d), l1.bound(d))
	}
	return ub
}

// sortBounds orders candidates by descending upper bound, ties by
// ascending vertex id. This total order is part of the determinism
// contract: the block scan's pruning decisions depend on it, and the
// shard merge (shard.go) reconstructs exactly this order from per-shard
// fragments.
func sortBounds(bs []boundedCand) {
	slices.SortFunc(bs, func(a, b boundedCand) int {
		switch {
		case a.ub > b.ub:
			return -1
		case a.ub < b.ub:
			return 1
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
}

// scoreCandidate scores the candidate v = out.V into out without
// scheduling walks of its own when it can: by the push that builds the
// query side, run from v as well (under ExactScoring), or through the
// tally cache, whose part in it is counted in
// stats. It reports false when neither applies and the caller must hand v
// to the lane kernel (scoreLanes).
//
// The candidate's walks are seeded from v alone (candSeed, one stream a
// walk), never shared, so its score is a pure function of the engine
// state — and its tally is reusable across queries, which the cross-query
// cache exploits. The cached and uncached paths evaluate the identical
// estimator over the identical walks (tally.go, lanes.go) — the cache's
// run to T−1 steps, the lane kernel's to the query's horizon — so
// enabling the cache changes work, never values.
func (e *Snapshot) scoreCandidate(s *scratch, wd *walkDist, out *ShardCand, floor float64, stats *QueryStats) bool {
	v := out.V
	if e.p.ExactScoring {
		// Deterministic scoring: the candidate side is pushed too.
		e.walkDistInto(&s.wd2, s, v)
		out.State, out.Score = ShardScoredNoRough, e.dotSeries(wd, &s.wd2)
		return true
	}
	c := e.cache
	if c == nil {
		return false
	}
	R, Rr := e.p.RScore, e.p.RRough
	ent := c.get(v)
	if ent != nil {
		stats.CacheHits++
	} else {
		// Miss: simulate all R walks to T−1 steps once and publish the
		// tally. The query is then served from the new entry exactly as a
		// hit would be — the rough estimate from the prefix counts —
		// whether or not the insert landed.
		e.simulateCandWalks(s, v, R)
		rsteps := e.buildFullTally(s, v, R, Rr, R)
		ent = newTallyEntry(v, rsteps, s)
		stats.CacheMisses++
		stats.CacheEvictions += c.put(ent)
	}
	tl := &ent.val
	out.State = ShardScoredNoRough
	if !e.p.DisableAdaptive {
		out.Rough = e.dotTally(wd, tl.off, tl.verts, tl.rcnt, 1/float64(Rr), int(tl.rsteps))
		if roughPruned(out.Rough, floor) {
			out.State = ShardRoughPruned
			return true
		}
		out.State = ShardScored
	}
	out.Score = e.dotTally(wd, tl.off, tl.verts, tl.cnt, 1/float64(R), e.p.T)
	return true
}

// collectCandidates enumerates candidate vertices for the query according
// to Params.Strategy, deduplicated through the scratch's epoch marks. The
// returned slice aliases qs.cands.
func (e *Snapshot) collectCandidates(qs *scratch, u uint32, dist []int32, ball []uint32) []uint32 {
	out := qs.cands[:0]
	qs.beginTally()
	qs.checkSeen(u) // never a candidate of itself
	switch e.p.Strategy {
	case CandidatesIndex:
		out = e.idx.appendCandidates(u, qs, out)
	case CandidatesBall:
		for _, v := range ball {
			if !qs.checkSeen(v) {
				out = append(out, v)
			}
		}
	case CandidatesHybrid:
		out = e.idx.appendCandidates(u, qs, out)
		for _, v := range ball {
			if dist[v] > 2 {
				break // BFS order: everything after is at least as far
			}
			if !qs.checkSeen(v) {
				out = append(out, v)
			}
		}
	}
	qs.cands = out
	return out
}
