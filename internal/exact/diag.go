package exact

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
)

// This file computes the exact diagonal correction matrix D of the linear
// formulation S = c·Pᵀ S P + D without dense matrices, so it scales to
// graphs where the O(n²) route of ExactDiagonal is impossible.
//
// The diagonal condition S(D)ᵤᵤ = 1 expands to the linear system
//
//	Σ_w M[u][w]·d[w] = 1,   M[u][w] = Σ_t cᵗ · xₜᵘ(w)²,   xₜᵘ = Pᵗe_u
//
// M is never materialized: each iteration evaluates M·d by propagating
// the sparse walk distribution of every vertex. The system is solved by
// damped Jacobi iteration d ← d + ω·(1 − M·d)/M[u][u]; M's diagonal
// entries are ≥ 1 (the t = 0 term alone contributes 1), which makes the
// damped update a contraction in practice.

// DiagOptions tunes ExactDiagonalSparse.
type DiagOptions struct {
	// T truncates the series; the same rule as eq. (10) applies.
	T int
	// MaxIters bounds the Jacobi sweeps (default 30).
	MaxIters int
	// Tol is the max-residual stopping criterion (default 1e-6).
	Tol float64
	// Damping is the update factor ω in (0, 1] (default 0.7).
	Damping float64
	// Workers bounds parallelism (default 1).
	Workers int
}

func (o DiagOptions) normalized() DiagOptions {
	if o.T <= 0 {
		o.T = 11
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 30
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 0.7
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// ExactDiagonalSparse computes the diagonal correction matrix D in
// O(iters · n · T · d̄ · |support|) time and O(n + support) space —
// no dense matrices. It returns D, the number of sweeps used, and the
// final max residual |1 − diag S(D)|.
func ExactDiagonalSparse(g *graph.Graph, c float64, opts DiagOptions) (d []float64, iters int, residual float64, err error) {
	if c <= 0 || c >= 1 {
		return nil, 0, 0, fmt.Errorf("exact: decay factor %v out of (0,1)", c)
	}
	opts = opts.normalized()
	n := g.N()
	d = make([]float64, n)
	for i := range d {
		d[i] = 1 - c // start from the paper's approximation
	}
	if n == 0 {
		return d, 0, 0, nil
	}

	// mdiag[u] = M[u][u] and the per-vertex apply both need the sparse
	// walk distributions; they are recomputed per sweep (the graphs this
	// targets are too large to cache n·T sparse vectors).
	md := make([]float64, n)    // M·d
	mdiag := make([]float64, n) // M[u][u]
	// walk is one worker's dense step vectors: cur and next hold a walk
	// distribution, curIDs its support in ascending vertex order, so every
	// sum runs in one fixed order whatever the worker count. Masses are
	// positive, so a zero entry of next is one not yet touched this step.
	type walk struct {
		cur, next       []float64
		curIDs, nextIDs []uint32
	}
	newWalk := func() *walk { return &walk{cur: make([]float64, n), next: make([]float64, n)} }
	applyRow := func(s *walk, u int, dVec []float64) (rowDot, diagCoef float64) {
		// x₀ = e_u.
		s.cur[u], s.curIDs = 1, append(s.curIDs[:0], uint32(u))
		rowDot = dVec[u] // t = 0 term: x₀(u)² · d_u
		diagCoef = 1
		ct := 1.0
		for t := 1; t < opts.T && len(s.curIDs) > 0; t++ {
			ct *= c
			s.nextIDs = s.nextIDs[:0]
			for _, w := range s.curIDs {
				mass := s.cur[w]
				s.cur[w] = 0
				in := g.In(w)
				if len(in) == 0 {
					continue
				}
				share := mass / float64(len(in))
				for _, x := range in {
					if s.next[x] == 0 {
						s.nextIDs = append(s.nextIDs, x)
					}
					s.next[x] += share
				}
			}
			slices.Sort(s.nextIDs)
			s.cur, s.next = s.next, s.cur
			s.curIDs, s.nextIDs = s.nextIDs, s.curIDs
			for _, w := range s.curIDs {
				contrib := ct * s.cur[w] * s.cur[w]
				rowDot += contrib * dVec[w]
				if int(w) == u {
					diagCoef += contrib
				}
			}
		}
		for _, w := range s.curIDs {
			s.cur[w] = 0
		}
		return rowDot, diagCoef
	}

	sweep := func(dVec []float64) {
		var wg sync.WaitGroup
		workers := opts.Workers
		if workers > n {
			workers = n
		}
		if workers <= 1 {
			s := newWalk()
			for u := 0; u < n; u++ {
				md[u], mdiag[u] = applyRow(s, u, dVec)
			}
			return
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(shard int) {
				defer wg.Done()
				s := newWalk()
				for u := shard; u < n; u += workers {
					md[u], mdiag[u] = applyRow(s, u, dVec)
				}
			}(w)
		}
		wg.Wait()
	}

	for iters = 1; iters <= opts.MaxIters; iters++ {
		sweep(d)
		residual = 0
		for u := 0; u < n; u++ {
			r := 1 - md[u]
			if ar := abs(r); ar > residual {
				residual = ar
			}
			d[u] += opts.Damping * r / mdiag[u]
		}
		if residual < opts.Tol {
			return d, iters, residual, nil
		}
	}
	return d, opts.MaxIters, residual, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
