package core

import (
	"slices"
	"sync/atomic"
)

// This file is the per-snapshot query-plan ("prolog") cache: a clockCache
// (cache.go) keyed by query vertex. Everything Algorithm 5 does before it
// scores its first candidate is a pure function of (snapshot, u):
//
//   - the query-side walk distribution: RAlpha walks from u drawn from
//     queryRNG(u), which is derived only from Params.Seed and u, tabulated
//     per step (sampleWalkDistInto) and consumed strictly read-only;
//   - the candidate list in bound order: the undirected ball around u to
//     DMax under BallBudget (graph), Algorithm 2's α/β table over that
//     ball and the distribution above, the candidates of
//     Params.Strategy (H rows of u's right neighbours, the ball), each
//     candidate's min(distance bound, β, L2 bound from γ(u,·)·γ(v,·)),
//     and sortBounds' total order (buildPlan, query.go).
//
// An entry holds both, immutable, so a hit touches no graph: it replaces a
// BFS over tens of thousands of vertices, the α/β table, the candidate
// join, the bounds and the sort by two slice loads. In the sharded
// deployment every shard asks for the same plan and filters it to its
// vertex range (the restriction of a total order is the order of the
// restriction), so on a hit the duplicated per-query work is gone. Exact
// scoring (ExactScoring with the support under the cap) derives a
// different distribution and is never cached.
//
// The two halves have different dependency footprints, which matters to
// the incremental rebuild only (see carryProlog): the distribution
// depends on u's T-step walk neighbourhood, the candidate list on far
// more.

// prolog is one cached query plan. wd is flat-backed (one allocation
// holds every step's vertices, walk counts and directory — bucket offsets
// or rank bitset — another the per-step slice headers) and immutable.
// plan points at the bound-sorted candidate list, shared read-only by
// every query that hits;
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

// prologEntryOverhead approximates the fixed per-entry footprint (struct
// and ring bookkeeping), prologStepOverhead the per-step one (three
// slice headers and the shift byte), and planOverhead the plan's (slice
// header and pointer).
const (
	prologEntryOverhead = 200
	prologStepOverhead  = 76
	planOverhead        = 32
)

// planBytes is the charge for a plan of n candidates (id, padding, bound).
func planBytes(n int) int64 { return planOverhead + 16*int64(n) }

// newPrologEntry deep-copies the sampled distribution wd into a
// flat-backed immutable entry without a plan. It charges 8 bytes per
// support vertex (id + walk count) plus 4 per directory word, whichever
// kind the step's directory is. A sparse step has no more buckets than
// support vertices (bucketing) and one closing offset: at most 4 bytes a
// vertex plus 4 a step. A dense step's rank bitset is 12 bytes per 64
// graph vertices, rounded up, and a step is dense only from n/denseDiv
// support vertices on (denseSupport): at most 6 bytes a vertex plus 12 a
// step. So an entry stays within 14 bytes a vertex plus 12 a step (12
// and 4 when every step is sparse, as on the web graphs, whose entries
// this change leaves byte for byte what they were).
func newPrologEntry(u uint32, wd *walkDist) *prologEntry {
	T := wd.T
	words := 0
	for t := 0; t < T; t++ {
		words += 2*len(wd.verts[t]) + len(wd.dir[t])
	}
	back := make([]uint32, 0, words)
	clone := func(xs []uint32) []uint32 {
		lo := len(back)
		back = append(back, xs...)
		return back[lo:len(back):len(back)]
	}
	rows := make([][]uint32, 3*T)
	size := prologEntryOverhead + prologStepOverhead*int64(T) + 4*int64(words)
	ent := &prologEntry{key: u, size: size, val: prolog{
		wd: walkDist{
			T:       T,
			verts:   rows[:T:T],
			dir:     rows[T : 2*T : 2*T],
			shift:   slices.Clone(wd.shift),
			sampled: true,
			invR:    wd.invR,
			cnt:     rows[2*T:],
		},
		wdBytes: size,
	}}
	for t := 0; t < T; t++ {
		// A step's directory, vertices and counts sit next to each other:
		// one lookup touches all three.
		ent.val.wd.dir[t] = clone(wd.dir[t])
		ent.val.wd.verts[t] = clone(wd.verts[t])
		ent.val.wd.cnt[t] = clone(wd.cnt[t])
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
	return planBytes(len(plan))
}

// carryProlog is the prolog cache's carry rule across an incremental
// rebuild (clockCache.carryForward), for a vertex outside the rebuild's
// affected set: the distribution is kept, the plan is dropped. The
// distribution depends only on u's T-step walk neighbourhood — the
// footprint of a candidate tally, which is what the affected set covers.
// The plan depends on the undirected ball to DMax, on the H rows of u's
// right neighbours and on γ of u and of every candidate; an edge far
// outside u's walk neighbourhood can change any of those. The carried
// entry shares the distribution's backing arrays with the old one; the
// first query to hit it derives the plan against the new snapshot and
// publishes it (queryPlan).
func carryProlog(old *prologEntry) *prologEntry {
	wd, size := old.val.wd, old.val.wdBytes
	return &prologEntry{key: old.key, size: size, val: prolog{wd: wd, wdBytes: size}}
}
