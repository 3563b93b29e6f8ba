// Package yu implements the all-pairs SimRank baseline of Yu et al.
// (WWW Journal 2012), the state-of-the-art all-pairs comparator in
// Section 8.3 of the paper: the iteration S ← (c·Pᵀ S P) ∨ I evaluated
// with sparse-dense products in O(T·n·m) time and O(n²) space.
//
// The defining property the comparison exploits is the Θ(n²) memory:
// the package predicts the allocation up front and fails cleanly when it
// exceeds the configured budget, reproducing the "failed to allocate"
// cells of Table 4.
package yu

import (
	"fmt"
	"time"

	"repro/internal/exact"
	"repro/internal/graph"
)

// ErrMemoryBudget is returned when the dense matrices would exceed the
// configured budget.
type ErrMemoryBudget struct {
	Need, Budget int64
}

func (e *ErrMemoryBudget) Error() string {
	return fmt.Sprintf("yu: all-pairs computation needs %d bytes, budget %d", e.Need, e.Budget)
}

// Params configures the baseline.
type Params struct {
	C float64
	T int
	// MemoryBudget bounds the dense working set in bytes; 0 = unlimited.
	MemoryBudget int64
}

// DefaultParams mirrors the paper's comparison: c = 0.6, T = 11.
func DefaultParams() Params { return Params{C: 0.6, T: 11} }

// Result is the dense all-pairs SimRank matrix plus cost accounting.
type Result struct {
	S       *exact.Matrix
	Bytes   int64
	Elapsed time.Duration
}

// PredictBytes returns the peak dense allocation of AllPairs: the current
// matrix, the Pᵀ S intermediate, and the next matrix.
func PredictBytes(n int) int64 {
	return 3 * int64(n) * int64(n) * 8
}

// AllPairs runs the O(T·n·m) iteration. It fails with *ErrMemoryBudget if
// the predicted allocation exceeds the budget.
func AllPairs(g *graph.Graph, p Params) (*Result, error) {
	if p.T <= 0 || p.C <= 0 || p.C >= 1 {
		return nil, fmt.Errorf("yu: invalid params c=%v T=%d", p.C, p.T)
	}
	need := PredictBytes(g.N())
	if p.MemoryBudget > 0 && need > p.MemoryBudget {
		return nil, &ErrMemoryBudget{Need: need, Budget: p.MemoryBudget}
	}
	start := time.Now()
	s := exact.PartialSumsAllPairs(g, p.C, p.T)
	return &Result{S: s, Bytes: need, Elapsed: time.Since(start)}, nil
}

// TopK extracts the k most similar vertices to u from the dense result,
// best first.
func (r *Result) TopK(u uint32, k int) []exact.Scored {
	return exact.TopK(r.S.Row(int(u)), u, k)
}

// AllTopK extracts top-k lists for every vertex.
func (r *Result) AllTopK(k int) [][]exact.Scored {
	out := make([][]exact.Scored, r.S.N)
	for u := 0; u < r.S.N; u++ {
		out[u] = r.TopK(uint32(u), k)
	}
	return out
}
