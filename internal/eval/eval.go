// Package eval provides ranking-quality metrics for comparing approximate
// similarity rankings against exact ones: precision at k and NDCG. The
// experiment harness and the accuracy tests use these to quantify how
// well the Monte-Carlo top-k reproduces the exact SimRank ranking beyond
// the paper's single recall number.
package eval

import (
	"math"
	"sort"
)

// Ranking is an ordered list of items, best first.
type Ranking []uint32

// PrecisionAtK returns |got[:k] ∩ want[:k]| / k. If got has fewer than k
// entries the denominator stays k (missing results count against
// precision).
func PrecisionAtK(got, want Ranking, k int) float64 {
	if k <= 0 {
		return 0
	}
	if len(want) < k {
		k = len(want)
		if k == 0 {
			return 0
		}
	}
	wantSet := make(map[uint32]struct{}, k)
	for _, v := range want[:k] {
		wantSet[v] = struct{}{}
	}
	hits := 0
	top := got
	if len(top) > k {
		top = top[:k]
	}
	for _, v := range top {
		if _, ok := wantSet[v]; ok {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// NDCGAtK computes the normalized discounted cumulative gain of the
// approximate ranking `got` against graded relevances `rel` (typically
// the exact SimRank scores), at cutoff k.
func NDCGAtK(got Ranking, rel map[uint32]float64, k int) float64 {
	if k <= 0 || len(rel) == 0 {
		return 0
	}
	dcg := 0.0
	for i, v := range got {
		if i >= k {
			break
		}
		dcg += rel[v] / math.Log2(float64(i)+2)
	}
	// Ideal ordering: relevances descending.
	ideal := make([]float64, 0, len(rel))
	for _, r := range rel {
		ideal = append(ideal, r)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
	idcg := 0.0
	for i, r := range ideal {
		if i >= k {
			break
		}
		idcg += r / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

// Collect converts any best-first scored list into a Ranking using the
// supplied ID accessor, e.g. eval.Collect(res, func(s core.Scored) uint32
// { return s.V }).
func Collect[T any](xs []T, id func(T) uint32) Ranking {
	out := make(Ranking, len(xs))
	for i, x := range xs {
		out[i] = id(x)
	}
	return out
}
