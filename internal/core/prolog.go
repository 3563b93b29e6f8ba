package core

import "slices"

// This file is the per-snapshot query-plan ("prolog") cache: a clockCache
// (cache.go) keyed by query vertex. Everything Algorithm 5 does before it
// scores its first candidate is a pure function of (snapshot, u):
//
//   - the query-side walk distribution (queryDistInto): Pᵗe_u pushed
//     along in-edges in ascending vertex order wherever a vertex's share
//     reaches 1/RAlpha — a function of the graph and u — cut at the
//     horizon h(u), which reads that distribution and C, T and D
//     (bounds.go), and consumed strictly read-only;
//   - the candidate list in bound order (buildPlan, query.go). Under
//     CandidatesIndex: the H rows of u's right neighbours, each candidate's
//     degree bound from its in-degree, and sortBounds' total order. Under
//     the strategies that enumerate from it, also the undirected ball
//     around u to DMax under BallBudget (graph) and Algorithm 2's α/β table
//     over that ball and the distribution above: their candidates are read
//     off the ball and bounded by min(distance bound, β, degree bound).
//
// An entry holds both, immutable, so a hit touches no graph: it replaces
// the candidate join, the bounds and the sort — and under the ball
// strategies a BFS over tens of thousands of vertices and the α/β table —
// by two slice loads. In the sharded
// deployment every shard asks for the same plan and filters it to its
// vertex range (the restriction of a total order is the order of the
// restriction), so on a hit the duplicated per-query work is gone.
// A vertex H gives no candidate is cached as an empty plan over no
// distribution at all.

// prolog is one cached query plan, immutable once published. wd is
// flat-backed (one allocation holds every step's vertices and mass words,
// another the per-step slice headers); it holds no scoring index, which
// every scored block builds for itself (slotIndex). An entry built for a
// vertex without candidates has a wd of no steps and neither allocation.
// plan is the bound-sorted candidate list, shared read-only by every query
// that hits; it is empty for a vertex with no candidates.
type prolog struct {
	wd   walkDist
	plan []boundedCand
}

type prologEntry = cacheEntry[prolog]

// prologEntryOverhead is the fixed footprint of an entry: the struct in
// its 112-byte size class and its slot in a ring that grows by doubling.
// Everything else an entry holds is charged by the capacity the allocator
// gave it (TestPrologEntryAccounting compares the charges with the heap).
const prologEntryOverhead = 112 + 16

// The builders an entry's distribution can come from, as PrologStats
// counts them.
const (
	builtPushed = iota
	builtEmpty
)

// builderOf tells which builder produced wd.
func builderOf(wd *walkDist) int {
	if wd.T == 0 {
		return builtEmpty
	}
	return builtPushed
}

// newPrologEntry deep-copies the distribution wd and the bound-sorted
// candidate list bs into an immutable entry and charges what that
// allocates: for bs, 16 bytes (id, padding, bound) for each candidate its
// array has room for; for wd, one array of 4-byte words — per step the
// vertices and the mass words next to each other — and the 2·T slice
// headers over it. A support vertex costs its id and its 8-byte mass.
// Steps from the query's horizon on are empty in wd and cost their headers
// only. A step-less distribution and an empty list copy nothing and cost
// the entry alone.
func newPrologEntry(u uint32, wd *walkDist, bs []boundedCand) *prologEntry {
	T := wd.T
	words := 0
	for t := 0; t < T; t++ {
		words += len(wd.verts[t]) + len(wd.massw[t])
	}
	// Grow and Clone size a fresh array to the allocator's class, so the
	// capacities below are what the entry really holds.
	back := slices.Grow([]uint32(nil), words)
	clone := func(xs []uint32) []uint32 {
		lo := len(back)
		back = append(back, xs...)
		return back[lo:len(back):len(back)]
	}
	rows := slices.Grow([][]uint32(nil), 2*T)[:2*T]
	plan := slices.Clone(bs)
	size := prologEntryOverhead + 4*int64(cap(back)) + 24*int64(cap(rows)) + 16*int64(cap(plan))
	ent := &prologEntry{key: u, size: size, val: prolog{
		wd: walkDist{
			T:     T,
			verts: rows[:T:T],
			massw: rows[T:],
		},
		plan: plan,
	}}
	for t := 0; t < T; t++ {
		ent.val.wd.verts[t] = clone(wd.verts[t])
		ent.val.wd.massw[t] = clone(wd.massw[t])
	}
	return ent
}
