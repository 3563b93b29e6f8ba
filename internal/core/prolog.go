package core

import (
	"slices"
	"sync/atomic"
)

// This file is the per-snapshot query-plan ("prolog") cache: a clockCache
// (cache.go) keyed by query vertex. Everything Algorithm 5 does before it
// scores its first candidate is a pure function of (snapshot, u):
//
//   - the query-side walk distribution (queryDistInto): Pᵗe_u pushed
//     exactly along in-edges in ascending vertex order when that takes no
//     more than pushBudget relaxations — a function of the graph and u —
//     and otherwise RAlpha walks from u drawn from queryRNG(u), which is
//     derived only from Params.Seed and u, tabulated per step; either way
//     cut at the horizon h(u), which reads that distribution and C, T and D
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
// restriction), so on a hit the duplicated per-query work is gone. An
// exact distribution is cached like a sampled one — ExactScoring reads
// the same entries and decides from the encoding (scoreCandidate) — and a
// vertex H gives no candidate is cached as an empty plan over no
// distribution at all.
//
// The two halves have different dependency footprints, which matters to
// the incremental rebuild only (see carryProlog): the distribution
// depends on u's T-step walk neighbourhood, the candidate list on far
// more.

// prolog is one cached query plan. wd is flat-backed (one allocation
// holds every step's directory — bucket offsets or rank bitset —
// vertices and mass words, another the per-step slice headers) and
// immutable; an entry built for a vertex without candidates has a wd of
// no steps and neither allocation. plan points at the bound-sorted
// candidate list, shared read-only by every query that hits;
// nil means "not derived yet" (an entry carried across an incremental
// rebuild), a pointer to an empty or nil slice is the valid plan of a
// vertex with no candidates. It is set at most once.
type prolog struct {
	wd walkDist
	// wdBytes is the charge for wd alone: what a carried entry costs.
	wdBytes int64
	plan    atomic.Pointer[[]boundedCand]
}

type prologEntry = cacheEntry[prolog]

// prologEntryOverhead is the fixed footprint of an entry — the struct in
// its 160-byte size class and its slot in a ring that grows by doubling —
// and planOverhead the plan's slice header behind its pointer. Everything
// else an entry holds is charged by the capacity the allocator gave it
// (TestPrologEntryAccounting compares the charges with the heap).
const (
	prologEntryOverhead = 160 + 16
	planOverhead        = 24
)

// The builders an entry's distribution can come from, as PrologStats
// counts them.
const (
	builtExact = iota
	builtSampled
	builtEmpty
)

// builderOf tells which builder produced wd.
func builderOf(wd *walkDist) int {
	switch {
	case wd.T == 0:
		return builtEmpty
	case wd.sampled:
		return builtSampled
	}
	return builtExact
}

// newPrologEntry deep-copies the distribution wd into a flat-backed
// immutable entry without a plan and charges what that allocates: one
// array of 4-byte words — per step the directory, the vertices and the
// mass words next to each other, because one lookup touches all three —
// the 3·T slice headers over it and the shift bytes. Steps from the query's
// horizon on are empty in wd and cost their headers only. A support vertex
// costs its id, its mass (4 bytes of walk count in a sampled distribution,
// the 8 of a float64 in an exact one) and its share of the directory: a
// sparse step has no more buckets than support vertices (bucketing) and
// one closing offset, a dense step's rank bitset is 12 bytes per 64 graph
// vertices and a step is dense only from n/denseDiv support vertices on
// (denseSupport), so at most 6 bytes a vertex. A step-less distribution
// copies nothing and costs the entry alone.
func newPrologEntry(u uint32, wd *walkDist) *prologEntry {
	T := wd.T
	words := 0
	for t := 0; t < T; t++ {
		words += len(wd.dir[t]) + len(wd.verts[t]) + len(wd.massw[t])
	}
	// Grow and Clone size a fresh array to the allocator's class, so the
	// capacities below are what the entry really holds.
	back := slices.Grow([]uint32(nil), words)
	clone := func(xs []uint32) []uint32 {
		lo := len(back)
		back = append(back, xs...)
		return back[lo:len(back):len(back)]
	}
	rows := slices.Grow([][]uint32(nil), 3*T)[:3*T]
	shift := slices.Clone(wd.shift)
	size := prologEntryOverhead + 4*int64(cap(back)) + 24*int64(cap(rows)) + int64(cap(shift))
	ent := &prologEntry{key: u, size: size, val: prolog{
		wd: walkDist{
			T:       T,
			verts:   rows[:T:T],
			dir:     rows[T : 2*T : 2*T],
			shift:   shift,
			sampled: wd.sampled,
			invR:    wd.invR,
			massw:   rows[2*T:],
		},
		wdBytes: size,
	}}
	for t := 0; t < T; t++ {
		ent.val.wd.dir[t] = clone(wd.dir[t])
		ent.val.wd.verts[t] = clone(wd.verts[t])
		ent.val.wd.massw[t] = clone(wd.massw[t])
	}
	return ent
}

// setPlan installs an immutable copy of the bound-sorted candidate list
// bs on an entry that has none and returns its charge, or 0 when a
// concurrent query got there first (both derive the same list).
func (p *prolog) setPlan(bs []boundedCand) int64 {
	plan := slices.Clone(bs)
	if !p.plan.CompareAndSwap(nil, &plan) {
		return 0
	}
	return planBytes(plan)
}

// planBytes is the charge for a cached plan: 16 bytes (id, padding, bound)
// for each candidate its array has room for.
func planBytes(plan []boundedCand) int64 { return planOverhead + 16*int64(cap(plan)) }

// carryProlog is the prolog cache's carry rule across an incremental
// rebuild (clockCache.carryForward), for a vertex outside the rebuild's
// affected set: the distribution is kept, the plan is dropped. The
// distribution depends only on u's T-step walk neighbourhood — the
// footprint of a candidate tally, which is what the affected set covers —
// and it keeps its horizon, a function of the distribution alone (its
// nonempty steps are the ones the old snapshot's query kept).
// The plan depends on the H rows of u's right neighbours and on the
// candidates' in-degrees (under the ball strategies on the undirected ball
// to DMax as well); an edge far outside u's walk neighbourhood can change
// any of those. The carried entry shares the distribution's backing
// arrays with the old one; the first query to hit it derives the plan
// against the new snapshot and publishes it (queryPlan). The entry of a
// vertex that had no candidate holds no distribution to carry — a
// candidate the rebuild gives it would be scored against nothing — so it
// is dropped and built afresh.
func carryProlog(old *prologEntry) *prologEntry {
	if old.val.wd.T == 0 {
		return nil
	}
	wd, size := old.val.wd, old.val.wdBytes
	return &prologEntry{key: old.key, size: size, val: prolog{wd: wd, wdBytes: size}}
}
