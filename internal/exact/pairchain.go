package exact

import (
	"slices"

	"repro/internal/graph"
)

// SinglePairSurfer computes the *converged* SimRank score s(u, v) for one
// pair deterministically, by dynamic programming on the random
// surfer-pair model (eq. 2–3 of the paper): s(u,v) = E[c^τ] where τ is
// the first meeting time of two coupled in-link walks. The pair chain
// keeps the joint distribution of the two walk positions restricted to
// not-yet-met states; at each step the mass that lands on the diagonal
// contributes cᵗ and leaves the chain.
//
// This is the classic iterative single-pair algorithm (the "Li et al."
// row of Table 1): time O(T·d²·|frontier|), space O(|frontier|), no
// dense matrices, and — unlike the truncated linear series with
// approximate D — it converges to true SimRank as T grows. Useful as a
// spot-check oracle on graphs far too large for all-pairs computation.
func SinglePairSurfer(g *graph.Graph, c float64, T int, u, v uint32) float64 {
	if u == v {
		return 1
	}
	// cur holds P{walks at (a,b) at step t, never met so far}, keyed
	// a<<32|b and walked in ascending key order, so every sum runs in one
	// fixed order.
	cur := map[uint64]float64{uint64(u)<<32 | uint64(v): 1}
	score := 0.0
	ct := 1.0
	for t := 1; t <= T && len(cur) > 0; t++ {
		ct *= c
		next := make(map[uint64]float64, len(cur))
		keys := make([]uint64, 0, len(cur))
		for p := range cur {
			keys = append(keys, p)
		}
		slices.Sort(keys)
		for _, p := range keys {
			inA := g.In(uint32(p >> 32))
			inB := g.In(uint32(p))
			if len(inA) == 0 || len(inB) == 0 {
				continue // one walk dies: the pair never meets
			}
			share := cur[p] / float64(len(inA)*len(inB))
			for _, x := range inA {
				for _, y := range inB {
					if x == y {
						score += ct * share // first meeting at step t
						continue
					}
					next[uint64(x)<<32|uint64(y)] += share
				}
			}
		}
		cur = next
	}
	return score
}
