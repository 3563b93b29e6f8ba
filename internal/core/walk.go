package core

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// Dead marks a random walk that reached a vertex with no in-links and
// stopped (its probability mass left the graph, matching Pᵗe_u losing
// mass at dangling vertices).
const Dead = graph.NoVertex

// resetWalks restarts every walk in pos at u.
func resetWalks(pos []uint32, u uint32) {
	for i := range pos {
		pos[i] = u
	}
}

// stepWalks advances every live walk one in-link step through the
// snapshot's alias walk table; walks at vertices with no in-links die.
// It returns the number of walks still alive. This is the Monte-Carlo
// workhorse shared by Algorithms 1–4: a batched gather+draw kernel over
// a flat position buffer with no per-step allocation (see
// graph.WalkTable.StepWalks for the draw schema and batching layout).
// lane is scratch of at least min(len(pos), graph.StepLane) entries —
// use scratch.laneBuf.
//
//lint:hotpath per-step kernel of every Monte-Carlo walk batch
func stepWalks(wt *graph.WalkTable, r *rng.Source, pos []uint32, lane []uint64) int {
	return wt.StepWalks(r, pos, lane)
}
