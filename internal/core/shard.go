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
//     (ShardScored), so the rough-prune decision (roughPruned) can be
//     re-taken by the router against the true global floor. A candidate
//     rough-pruned at Theta (ShardRoughPruned) is rough-pruned at every
//     floor >= Theta — the cut only grows with the floor — so its refined
//     score is never needed. Under DisableAdaptive no rough pass runs:
//     candidates return ShardScoredNoRough and are never rough-pruned,
//     matching search() exactly.
//
// MergeShardTopKScratch then reconstructs the global bound order — the
// (ub desc, v asc) total order of sortBounds — by k-way merge and runs
// the scan search() runs, scanOrdered itself, over it: the floor per
// block, the stop at the first bound below it, the block tail trim and
// the admission are that one function's, fed the shipped outcomes where
// search() feeds it live ones. Because each candidate's score is a pure
// function of (snapshot, v) — candSeed is per-vertex — the scan observes
// exactly the values the single-node scan would have computed, so results
// AND pruning counters are byte-identical. Cache hit/miss counters are the
// one exception: each shard looks the row up in its own row cache, so the
// router sums the per-shard values instead (topology-dependent, still
// deterministic for a fixed topology and query history).
//
// A threshold query is the same exchange at its own floor: the shards scan
// at the query's theta instead of the serving Theta, and the merge runs
// with k = 0, where the scan's floor is theta in every block — so its rough
// verdicts, admissions and order are exactly Threshold's.

// ShardCand states: what scoring one candidate at one pruning floor came
// to. scoreBlock writes them (lanes.go), the scan reads them
// (scanOrdered), fragments carry them.
const (
	// ShardUnscored: upper bound below Theta; carries V and UB only.
	ShardUnscored = uint8(iota)
	// ShardRoughPruned: the rough estimate was small against the floor
	// (roughPruned); carries Rough, no Score.
	ShardRoughPruned
	// ShardScored: refined estimate in Score, rough pass ran (Rough
	// valid) — the router re-takes the rough-prune decision.
	ShardScored
	// ShardScoredNoRough: refined estimate in Score, no rough pass ran
	// (DisableAdaptive); never rough-pruned.
	ShardScoredNoRough
)

// ShardCand is one candidate's scoring outcome: what scoreBlock hands the
// scan, and one entry of a shard fragment, ordered by (UB desc, V asc)
// within the fragment. UB is clamped to MaxFloat64 so fragments survive
// JSON transport; all real bounds are <= 1, so the clamp cannot reorder
// the merge. The JSON keys are the /shard/* API's: short, because a
// fragment carries every candidate of a query, with Rough and Score
// omitted when zero — State says which of them are meaningful, and a true
// zero round-trips as zero.
type ShardCand struct {
	V     uint32  `json:"v"`
	UB    float64 `json:"ub"`
	State uint8   `json:"st"`
	Rough float64 `json:"r,omitempty"`
	Score float64 `json:"sc,omitempty"`
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

// ShardScanCtx scores the candidates of a query at u that fall in the
// vertex range [lo, hi), at the fixed pruning floor theta, and writes the
// fragment into dst (reusing its capacity, like append; its previous
// contents are discarded). At the serving Theta it is a top-k query's
// fragment, at any other theta a threshold query's: merged with k = 0 at
// the same theta, fragments replay Threshold(u, theta) exactly, because at
// k = 0 the scan's floor is theta in every block. The returned stats carry
// the shard-local cache counters plus scan counters as observed at floor
// theta (the router recomputes the global scan counters during the
// merge). The full range [0, N) reproduces exactly the work of a
// single-node query with a floor pinned at theta.
func (e *Snapshot) ShardScanCtx(ctx context.Context, u uint32, theta float64, lo, hi uint32, dst []ShardCand) ([]ShardCand, QueryStats, error) {
	return e.shardScan(ctx, u, theta, lo, hi, dst[:0])
}

// shardScan writes the fragment into dst (grown as needed; nil
// allocates fresh). dst must arrive with length zero or nil. Like search it
// runs on the calling goroutine and builds the query side's slot index
// once, for every block it scores.
func (e *Snapshot) shardScan(ctx context.Context, u uint32, theta float64, lo, hi uint32, dst []ShardCand) ([]ShardCand, QueryStats, error) {
	var stats QueryStats
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	qs := e.getScratch()
	defer e.putScratch(qs)

	// This shard's slice of the query plan: the global bound order
	// restricted to [lo, hi), which is all the merge needs.
	pl, err := e.plan(ctx, qs, u, theta, &stats)
	if err != nil {
		return nil, stats, err
	}
	wd, bs := pl.wd, pl.restrict(qs, lo, hi)
	stats.Candidates = len(bs)

	out := slices.Grow(dst, len(bs))[:len(bs)]
	// Everything below theta is below every admissible floor: return it
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
	// The rest is scored at the fixed floor theta, straight into the
	// fragment, and counted as the scan would count it at that floor.
	x := &qs.slots
	if cut > 0 && wd.T > 0 {
		x.build(wd, qs.n)
		defer x.clear()
	}
	for i := 0; i < cut; i += scoreBlock {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		end := min(i+scoreBlock, cut)
		e.scoreBlock(qs, bs[i:end], out[i:end], x, theta)
		for _, c := range out[i:end] {
			stats.note(c, theta)
		}
	}
	return out, stats, nil
}

// MergeScratch holds the reusable buffers of a fragment merge, so a
// router can run MergeShardTopKScratch per query without re-allocating
// the merged candidate stream. The zero value is ready to use.
type MergeScratch struct {
	bs    []ShardCand
	heads []int
}

// MergeShardTopKScratch merges per-shard fragments (each sorted by UB
// desc, V asc over a disjoint vertex range) into the global bound order
// and runs the single-node scan (scanOrdered) over the merged stream, with
// the shipped outcomes standing in for live scoring. k == 0 means
// unlimited (every candidate scoring >= theta): fragments scanned at theta
// then replay Threshold(u, theta). The returned results and scan counters
// are byte-identical to search()'s on the union of the fragments; cache
// counters are zero here — the caller sums the per-shard stats for those
// (QueryStats.AddCache). Working memory comes from ms (nil behaves like a
// fresh scratch).
func MergeShardTopKScratch(k int, theta float64, frags [][]ShardCand, ms *MergeScratch) ([]Scored, QueryStats) {
	total := 0
	for _, f := range frags {
		total += len(f)
	}
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

	var stats QueryStats
	res, _ := scanOrdered(k, theta, len(bs), &stats,
		func(i int) float64 { return bs[i].UB },
		func(i, end int, _ float64) ([]ShardCand, error) { return bs[i:end], nil })
	return res, stats
}
