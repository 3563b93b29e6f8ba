package core

import (
	"context"
	"sort"
	"sync"
)

// SimilarityJoin finds every unordered vertex pair whose estimated
// SimRank score is at least theta — the SimRank-based similarity join of
// Zheng et al. (PVLDB 2013), expressible directly on top of the top-k
// machinery: each vertex runs a threshold query and pairs are
// deduplicated as (min, max). Work parallelizes over query vertices like
// AllTopK.
//
// maxPairs caps the output size (0 = unlimited); when the cap is hit the
// lowest-scoring pairs are dropped, keeping the strongest joins.
func (e *Snapshot) SimilarityJoin(theta float64, maxPairs int) []JoinPair {
	out, _ := e.SimilarityJoinCtx(context.Background(), theta, maxPairs)
	return out
}

// SimilarityJoinCtx is SimilarityJoin with cancellation: the per-vertex
// threshold queries stop once ctx is cancelled and the call returns
// ctx.Err() with no partial output.
func (e *Snapshot) SimilarityJoinCtx(ctx context.Context, theta float64, maxPairs int) ([]JoinPair, error) {
	type keyed struct {
		key   uint64
		score float64
	}
	var mu sync.Mutex
	seen := make(map[uint64]float64)

	err := e.forEachVertexParallel(ctx, func(u uint32) {
		res, _, err := e.search(ctx, u, 0, theta)
		if err != nil || len(res) == 0 {
			return
		}
		mu.Lock()
		for _, s := range res {
			a, b := u, s.V
			if a > b {
				a, b = b, a
			}
			key := uint64(a)<<32 | uint64(b)
			// Each pair is estimated from both endpoints; keep the
			// larger estimate (both are unbiased; max adds a slight
			// optimism that errs toward keeping borderline joins).
			if old, ok := seen[key]; !ok || s.Score > old {
				seen[key] = s.Score
			}
		}
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}

	pairs := make([]keyed, 0, len(seen))
	for k, s := range seen {
		pairs = append(pairs, keyed{k, s})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].score != pairs[j].score {
			return pairs[i].score > pairs[j].score
		}
		return pairs[i].key < pairs[j].key
	})
	if maxPairs > 0 && len(pairs) > maxPairs {
		pairs = pairs[:maxPairs]
	}
	out := make([]JoinPair, len(pairs))
	for i, p := range pairs {
		out[i] = JoinPair{U: uint32(p.key >> 32), V: uint32(p.key & 0xffffffff), Score: p.score}
	}
	return out, nil
}

// JoinPair is one result of SimilarityJoin, with U < V.
type JoinPair struct {
	U, V  uint32
	Score float64
}
