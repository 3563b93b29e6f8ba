package core

import "repro/internal/graph"

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
