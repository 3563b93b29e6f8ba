// Package simrank provides scalable top-k SimRank similarity search,
// implementing "Scalable Similarity Search for SimRank" (Kusumoto,
// Maehara, Kawarabayashi; SIGMOD 2014).
//
// SimRank (Jeh & Widom, KDD 2002) scores two vertices as similar when
// they are linked from similar vertices. This package answers, for a
// query vertex u, "which k vertices are most SimRank-similar to u?" in
// time that is effectively independent of the graph size, after an O(n)
// preprocess, using only O(m) memory.
//
// # Quick start
//
//	g, err := simrank.LoadEdgeListFile("graph.txt")
//	if err != nil { ... }
//	idx := simrank.BuildIndex(g, simrank.DefaultOptions())
//	top, err := idx.TopK(42, 20) // 20 most similar vertices to vertex 42
//
// # How it works
//
// The method rewrites the SimRank recursion as the linear series
// S = Σ_t cᵗ·(Pᵗ)ᵀ·D·Pᵗ, where P is the in-link random-walk transition
// matrix and D a diagonal correction (approximated by (1−c)·I, which
// rescales but does not reorder top-k results). Single-pair scores are
// then estimated by Monte-Carlo simulation over pairs of in-link walks
// in O(T·R) time. A preprocess builds a bipartite candidate index from
// colliding random walks; queries enumerate candidates, order and prune
// them by upper bounds on their scores, and refine survivors with
// adaptive sampling.
//
// Deterministic exact references (the naive Jeh–Widom iteration and the
// truncated-series single-source evaluation) are exposed through the
// Exact* functions for validation and small-graph use.
package simrank
