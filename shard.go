package simrank

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// Shard-serving API: the building blocks of the distributed tier. A
// shard holds the full index (same graph, same seed) but scores only
// the candidates in its assigned vertex range; a router merges the
// per-shard fragments with MergeShardTopKScratch and gets results — and
// pruning statistics — byte-identical to a single-node query. See
// internal/core/shard.go for the replay argument and internal/shard for
// manifests and partitioning.

// ShardCand is one candidate's scoring outcome in a shard fragment:
// vertex, upper bound, scoring state (ShardUnscored / ShardRoughPruned /
// ShardScored / ShardScoredNoRough), and the rough and refined estimates
// where the state says they are valid. Fragments are ordered by UB
// descending, ties by V ascending.
type ShardCand = core.ShardCand

// Shard fragment states (ShardCand.State).
const (
	ShardUnscored      = core.ShardUnscored
	ShardRoughPruned   = core.ShardRoughPruned
	ShardScored        = core.ShardScored
	ShardScoredNoRough = core.ShardScoredNoRough
)

// checkRange validates a shard vertex range [lo, hi) against the graph.
func (ix *Index) checkRange(lo, hi int) error {
	if lo < 0 || hi < lo || hi > ix.g.NumVertices() {
		return fmt.Errorf("simrank: shard range [%d, %d) invalid for %d vertices",
			lo, hi, ix.g.NumVertices())
	}
	return nil
}

// TopKShardAppendCtx runs the shard-restricted scan for a top-k query at
// u: candidates in [lo, hi) are scored at the fixed floor Threshold and
// written as a fragment into dst (reusing its capacity, like append), for
// MergeShardTopKScratch. The stats carry this shard's cache counters;
// scan counters are recomputed by the merge.
func (ix *Index) TopKShardAppendCtx(ctx context.Context, u, lo, hi int, dst []ShardCand) ([]ShardCand, QueryStats, error) {
	return ix.SimilarShardCtx(ctx, u, ix.Threshold(), lo, hi, dst)
}

// SimilarShardCtx is the shard-restricted Similar query: the fragment
// scan of TopKShardAppendCtx at the floor threshold instead of the
// serving Threshold. Merged with k = 0 at the same threshold, the
// fragments of a partition replay Similar(u, threshold) exactly.
func (ix *Index) SimilarShardCtx(ctx context.Context, u int, threshold float64, lo, hi int, dst []ShardCand) ([]ShardCand, QueryStats, error) {
	if err := ix.g.checkVertex(u); err != nil {
		return dst, QueryStats{}, err
	}
	if err := ix.checkRange(lo, hi); err != nil {
		return dst, QueryStats{}, err
	}
	f, st, err := ix.e.ShardScanCtx(ctx, uint32(u), threshold, uint32(lo), uint32(hi), dst)
	if err != nil {
		return dst, QueryStats{}, err
	}
	return f, st, nil
}

// MergeScratch holds the reusable working memory of a fragment merge;
// see MergeShardTopKScratch. The zero value is ready to use.
type MergeScratch = core.MergeScratch

// MergeShardTopKScratch merges per-shard fragments covering disjoint
// vertex ranges and replays the single-node adaptive scan over the merged
// stream. Results and scan statistics (Candidates, PrunedByBound,
// PrunedByRough, Refined) are byte-identical to TopKWithStats on the same
// index; cache counters are zero — sum the per-shard stats for those.
// theta must be the floor the fragments were scanned at: the serving
// Threshold for top-k fragments (see Manifest.Theta in internal/shard),
// the query's own for SimilarShardCtx's, merged with k = 0. The merge
// buffers come from ms, so a router can merge every query through one
// scratch without re-allocating the candidate stream (nil ms behaves like
// a fresh scratch).
func MergeShardTopKScratch(k int, theta float64, frags [][]ShardCand, ms *MergeScratch) ([]Result, QueryStats) {
	res, st := core.MergeShardTopKScratch(k, theta, frags, ms)
	return toResults(res), st
}

// ServingFingerprint digests everything that determines query results:
// the graph structure and every result-affecting parameter (including
// the seed; excluding Workers and CacheBytes, which move work around
// without changing output). Two indexes with equal fingerprints answer
// every query identically, which is the precondition for merging their
// shard fragments.
func (ix *Index) ServingFingerprint() (graphFP, paramsFP uint64) {
	return ix.g.g.Fingerprint(), ix.e.Params().Fingerprint()
}

// Threshold returns the index's serving pruning threshold θ (the
// normalized Options.Threshold), which routers must pass to
// MergeShardTopKScratch for top-k fragments.
func (ix *Index) Threshold() float64 { return ix.e.Params().Theta }

// Seed returns the index's deterministic seed.
func (ix *Index) Seed() uint64 { return ix.e.Params().Seed }
