package core

import (
	"context"
	"math"
	"slices"
)

// Shard-restricted scoring and the deterministic scatter-gather merge.
//
// The distributed tier partitions *candidate scoring work* across shards
// by vertex range: every shard holds the full snapshot (same graph, same
// seed), scores only the candidates it owns, and ships per-candidate
// outcomes to the router, which replays the single-node scan over the
// merged stream. The hard invariant is byte-identity: the router's
// answer must equal search()'s, bit for bit, including the pruning
// statistics.
//
// Why a plain per-shard top-k merge is NOT enough for /topk: search()'s
// adaptive pruning floor, max(theta, kth-best-so-far), is re-evaluated
// once per 64-candidate block over the *globally* bound-sorted candidate
// list. A shard-local floor can both over-prune (its local kth rises
// faster than the global one at the same scan position) and under-prune
// (a candidate the global scan rough-prunes survives a lower local
// floor). So shards do not make floor-dependent decisions at all:
//
//   - Candidates whose upper bound is below Theta are returned unscored
//     (ShardUnscored). Every admissible floor is >= Theta, so the global
//     scan bound-prunes them no matter what.
//   - Candidates at or above Theta are scored at the fixed floor Theta.
//     The rough adaptive estimate is shipped alongside the refined score
//     (ShardScored), so the rough-prune decision "rough < 0.3*floor" can
//     be re-taken by the router against the true global floor. A
//     candidate rough-pruned at Theta (ShardRoughPruned) is rough-pruned
//     at every floor >= Theta — 0.3*floor only grows — so its refined
//     score is never needed. Paths that run no rough pass (exact
//     scoring, DisableAdaptive) return ShardScoredNoRough and are never
//     rough-pruned, matching search() exactly.
//
// MergeShardTopK then reconstructs the global bound order — the
// (ub desc, v asc) total order of sortBounds — by k-way merge and
// replays search()'s block loop verbatim: recompute the floor per block,
// stop at the first bound below it, trim the block tail, re-take every
// rough-prune decision from the shipped estimates. Because each
// candidate's score is a pure function of (snapshot, v) — candSeed is
// per-vertex — the replayed scan observes exactly the values the
// single-node scan would have computed, so results AND pruning counters
// are byte-identical. Cache hit/miss counters are the one exception:
// they depend on which shard's cache served each candidate, so the
// router sums the per-shard values instead (topology-dependent, still
// deterministic for a fixed topology and query history).

// ShardCand states. A fragment entry is one candidate's scoring outcome
// on the shard that owns it.
const (
	// ShardUnscored: upper bound below Theta; carries V and UB only.
	ShardUnscored = uint8(iota)
	// ShardRoughPruned: rough estimate fell below 0.3*Theta; carries
	// Rough, no Score.
	ShardRoughPruned
	// ShardScored: refined estimate in Score, rough pass ran (Rough
	// valid) — the router re-takes the rough-prune decision.
	ShardScored
	// ShardScoredNoRough: refined estimate in Score, no rough pass ran
	// (exact scoring or DisableAdaptive); never rough-pruned.
	ShardScoredNoRough
)

// ShardCand is one candidate's outcome in a shard fragment, ordered by
// (UB desc, V asc) within the fragment. UB is clamped to MaxFloat64 so
// fragments survive JSON transport; all real bounds are <= 1, so the
// clamp cannot reorder the merge.
type ShardCand struct {
	V     uint32
	UB    float64
	State uint8
	Rough float64
	Score float64
}

// shardCandBefore is the fragment order: UB descending, ties by V
// ascending — exactly sortBounds' total order.
func shardCandBefore(a, b ShardCand) bool {
	if a.UB != b.UB {
		return a.UB > b.UB
	}
	return a.V < b.V
}

func clampUB(ub float64) float64 {
	return math.Min(ub, math.MaxFloat64)
}

// SortShardCands puts a fragment into the order TopKShardCtx produces
// and MergeShardTopK requires. Fragments from TopKShardCtx are already
// sorted; this is for callers assembling fragments by hand (tests) or
// validating untrusted wire input.
func SortShardCands(cs []ShardCand) {
	slices.SortFunc(cs, func(a, b ShardCand) int {
		if shardCandBefore(a, b) {
			return -1
		}
		if shardCandBefore(b, a) {
			return 1
		}
		return 0
	})
}

// TopKShardCtx scores the candidates of a query at u that fall in the
// vertex range [lo, hi), at the fixed pruning floor Theta, and returns
// the fragment the router merges with MergeShardTopK. The returned
// stats carry the shard-local cache counters plus scan counters as
// observed at floor Theta (the router recomputes the global scan
// counters during the merge). The full range [0, N) reproduces exactly
// the work of a single-node query with a floor pinned at Theta.
func (e *Snapshot) TopKShardCtx(ctx context.Context, u uint32, lo, hi uint32) ([]ShardCand, QueryStats, error) {
	return e.shardScan(ctx, u, lo, hi, e.p.Workers, nil)
}

// TopKShardAppendCtx is TopKShardCtx writing the fragment into dst
// (reusing its capacity, like append), for servers that recycle
// fragment buffers across requests. The returned slice is dst grown as
// needed; dst's previous contents are discarded.
func (e *Snapshot) TopKShardAppendCtx(ctx context.Context, u uint32, lo, hi uint32, dst []ShardCand) ([]ShardCand, QueryStats, error) {
	return e.shardScan(ctx, u, lo, hi, e.p.Workers, dst[:0])
}

// TopKShardBatchCtx answers many shard-restricted queries, parallelized
// across queries (one worker per query, like TopKBatchCtx).
func (e *Snapshot) TopKShardBatchCtx(ctx context.Context, us []uint32, lo, hi uint32) ([][]ShardCand, []QueryStats, error) {
	res := make([][]ShardCand, len(us))
	sts := make([]QueryStats, len(us))
	if err := e.topKShardBatchInto(ctx, us, lo, hi, res, sts); err != nil {
		return nil, nil, err
	}
	return res, sts, nil
}

// TopKShardBatchAppendCtx is TopKShardBatchCtx writing fragments and
// stats into caller-supplied parallel slices (len(frags) and len(sts)
// must equal len(us)); frags[i]'s capacity is reused per query.
func (e *Snapshot) TopKShardBatchAppendCtx(ctx context.Context, us []uint32, lo, hi uint32, frags [][]ShardCand, sts []QueryStats) error {
	for i := range frags {
		frags[i] = frags[i][:0]
	}
	return e.topKShardBatchInto(ctx, us, lo, hi, frags, sts)
}

func (e *Snapshot) topKShardBatchInto(ctx context.Context, us []uint32, lo, hi uint32, frags [][]ShardCand, sts []QueryStats) error {
	return e.forEachIndexParallel(ctx, len(us), func(i int) {
		f, st, err := e.shardScan(ctx, us[i], lo, hi, 1, frags[i])
		if err != nil {
			return // the pool sees the cancelled ctx and reports it
		}
		frags[i] = f
		sts[i] = st
	})
}

// shardScan writes the fragment into dst (grown as needed; nil
// allocates fresh). dst must arrive with length zero or nil.
func (e *Snapshot) shardScan(ctx context.Context, u uint32, lo, hi uint32, workers int, dst []ShardCand) ([]ShardCand, QueryStats, error) {
	var stats QueryStats
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	qs := e.getScratch()
	defer e.putScratch(qs)

	// This shard's slice of the query plan: the global bound order
	// restricted to [lo, hi), which is all the merge needs.
	pl := e.queryPlan(qs, u)
	wd, bs := pl.wd, pl.restrict(qs, lo, hi)
	stats.Candidates = len(bs)

	theta := e.p.Theta
	out := slices.Grow(dst, len(bs))[:len(bs)]
	// Everything below Theta is below every admissible floor: return it
	// unscored. Bounds are sorted descending, so this is a suffix.
	cut := len(bs)
	for i, b := range bs {
		if b.ub < theta {
			cut = i
			break
		}
	}
	stats.PrunedByBound = len(bs) - cut
	for i := cut; i < len(bs); i++ {
		out[i] = ShardCand{V: bs[i].v, UB: clampUB(bs[i].ub), State: ShardUnscored}
	}

	for i := 0; i < cut; {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		end := i + scoreBlock
		if end > cut {
			end = cut
		}
		block := bs[i:end]
		scores := e.scoreBlock(qs, block, wd, theta, workers)
		for j, b := range block {
			cs := scores[j]
			switch cs.cache {
			case cacheHit:
				stats.CacheHits++
			case cacheMiss:
				stats.CacheMisses++
			}
			stats.CacheEvictions += int(cs.evicted)
			sc := ShardCand{V: b.v, UB: clampUB(b.ub), Rough: cs.rough}
			switch cs.state {
			case candRoughPruned:
				sc.State = ShardRoughPruned
				stats.PrunedByRough++
			case candScoredNoRough:
				sc.State = ShardScoredNoRough
				sc.Score = cs.score
				stats.Refined++
			default:
				sc.State = ShardScored
				sc.Score = cs.score
				stats.Refined++
			}
			out[i+j] = sc
		}
		i = end
	}
	return out, stats, nil
}

// ThresholdShardCtx is the shard-restricted Threshold query. Unlike
// top-k, the threshold scan's floor is fixed at theta — there is no
// adaptive component — so every pruning decision is local to the
// candidate and a plain deterministic merge of the per-shard result
// lists (score desc, ties by V asc: scoredLess) reproduces the
// single-node output. Per-shard stats sum to the single-node stats.
func (e *Snapshot) ThresholdShardCtx(ctx context.Context, u uint32, theta float64, lo, hi uint32) ([]Scored, QueryStats, error) {
	return e.searchRange(ctx, u, 0, theta, e.p.Workers, lo, hi)
}

// MergeShardTopK merges per-shard fragments (each sorted by UB desc, V
// asc over a disjoint vertex range) and replays the single-node scan of
// search() over the merged stream: per-block floor recomputation,
// bound-prune cutoff, block tail trim, and re-taken rough-prune
// decisions. k == 0 means unlimited (every candidate scoring >= theta).
// The returned results and scan counters are byte-identical to
// search()'s on the union of the fragments; cache counters are zero
// here — the caller sums the per-shard stats for those.
func MergeShardTopK(k int, theta float64, frags [][]ShardCand) ([]Scored, QueryStats) {
	return MergeShardTopKScratch(k, theta, frags, nil)
}

// MergeScratch holds the reusable buffers of a fragment merge, so a
// router can run MergeShardTopKScratch per query without re-allocating
// the merged candidate stream. The zero value is ready to use.
type MergeScratch struct {
	bs    []ShardCand
	heads []int
}

// MergeShardTopKScratch is MergeShardTopK drawing its working memory
// from ms (nil behaves like a fresh scratch).
func MergeShardTopKScratch(k int, theta float64, frags [][]ShardCand, ms *MergeScratch) ([]Scored, QueryStats) {
	var stats QueryStats
	total := 0
	for _, f := range frags {
		total += len(f)
	}
	stats.Candidates = total

	if ms == nil {
		ms = &MergeScratch{}
	}
	// K-way merge into the global bound order. Shard counts are small
	// (single digits), so a linear head scan beats heap bookkeeping.
	bs := slices.Grow(ms.bs[:0], total)
	heads := ms.heads[:0]
	for range frags {
		heads = append(heads, 0)
	}
	ms.heads = heads
	for merged := 0; merged < total; merged++ {
		best := -1
		for fi, f := range frags {
			if heads[fi] >= len(f) {
				continue
			}
			if best < 0 || shardCandBefore(f[heads[fi]], frags[best][heads[best]]) {
				best = fi
			}
		}
		bs = append(bs, frags[best][heads[best]])
		heads[best]++
	}
	ms.bs = bs

	acc := newTopKAcc(k)
	if k == 0 {
		acc = newTopKAcc(len(bs))
	}
	for i := 0; i < len(bs); {
		floor := theta
		if k > 0 && acc.kth() > floor {
			floor = acc.kth()
		}
		if bs[i].UB < floor {
			stats.PrunedByBound += len(bs) - i
			break
		}
		end := i + scoreBlock
		if end > len(bs) {
			end = len(bs)
		}
		for end > i && bs[end-1].UB < floor {
			end--
		}
		for j := i; j < end; j++ {
			c := bs[j]
			switch {
			case c.State == ShardRoughPruned,
				c.State == ShardScored && c.Rough < 0.3*floor:
				stats.PrunedByRough++
			case c.State == ShardUnscored:
				// Unreachable for well-formed fragments: an unscored entry
				// has UB < theta <= floor, so the sorted scan breaks (or the
				// tail trim excludes it) before reaching it. Counted as
				// bound-pruned defensively rather than invented as a score.
				stats.PrunedByBound++
			default:
				stats.Refined++
				if c.Score >= theta {
					acc.add(Scored{c.V, c.Score})
				}
			}
		}
		i = end
	}
	return acc.result(), stats
}

// MergeScored merges per-shard Threshold result lists (each sorted best
// first by scoredLess) into the global best-first order. k == 0 keeps
// everything. Exact for any fixed-floor query mode.
func MergeScored(k int, frags [][]Scored) []Scored {
	total := 0
	for _, f := range frags {
		total += len(f)
	}
	if k == 0 || k > total {
		k = total
	}
	out := make([]Scored, 0, k)
	heads := make([]int, len(frags))
	for len(out) < k {
		best := -1
		for fi, f := range frags {
			if heads[fi] >= len(f) {
				continue
			}
			if best < 0 || scoredLess(frags[best][heads[best]], f[heads[fi]]) {
				best = fi
			}
		}
		if best < 0 {
			break
		}
		out = append(out, frags[best][heads[best]])
		heads[best]++
	}
	return out
}
