package core

import (
	"context"
	"sort"
)

// This file is the linear scorer (CandidatesLinear): the truncated series
// of a query u against every vertex at once, computed deterministically as
// one sparse forward pass and one sparse backward pass — the linearization
// of Maehara, Kusumoto and Kawarabayashi — with no candidate index and no
// sampled walk.
//
//	s_u = Σ_{t<T} cᵗ (Pᵀ)ᵗ (d ⊙ xₜ),   xₜ = Pᵗ e_u
//
// The forward half (linearForwardInto) is the push every strategy builds:
// xₜ pushed along in-edges wherever a vertex's share reaches 1/RAlpha, all
// T steps (no horizon trim), into the dense accumulator the backward pass
// uses too. Its steps stay in first-touch order: nothing here needs them
// ascending, so no step is sorted (walkDistInto sorts each one for the
// Monte-Carlo consumers); xₜ holds the same vertices and, up to the order
// of each sum, the same masses. The backward half is Horner's rule from the
// last nonempty step h−1 down to 0:
//
//	r_{h−1} = d ⊙ x_{h−1},   r_t = d ⊙ xₜ + c·Q r_{t+1},   ŝ = r_0
//
// with (Q r)(j) = Σ_{i ∈ In(j)} r(i)/indeg(j), run as a scatter: a source i
// of level t+1 hands c·r(i)/indeg(j) to each j ∈ Out(i), in the push's
// one accumulator, and d ⊙ xₜ is added after the scatter (addDiag). A
// source is pruned before its scatter when c^(t+1)·r(i) < ε: what r(i)
// would still add to any one vertex's score is c^(t+1)·(Q^(t+1))(v,i)·r(i)
// ≤ c^(t+1)·r(i), because every row of Q^(t+1) sums to at most 1. Pruned
// mass is non-negative, so ŝ never exceeds the series over the pushed xₜ,
// and that never exceeds the exact series (the push holds mass back, it
// never invents any): the error is one-sided. Per query it is at most
// Δ = Σ over levels of the largest pruned c^(t+1)·r(i) (the slack
// backwardInto returns) plus what the push held back (DESIGN.md §4).
//
// A query at threshold θ prunes at ε = min(θ, Theta)/linearEpsDiv, and every
// entry of the row at or above θ is a candidate bounded by its own score: the
// plan the scan, the shard fragments and the merge replay take unchanged,
// each block's outcome ShardScoredNoRough with Score = ub (scoreBlock).

// linearEpsDiv is the ratio θ/ε of the backward pass's prune threshold: at
// θ/10 the benchmark's graphs serve precision@20 0.996 (web) and 0.926
// (social) against the exact series; θ/30 buys 0.01 of social precision for
// twice the social work (DESIGN.md §4 has the table).
const linearEpsDiv = 10

// rowAcc is one step of the forward push or one level of the backward
// pass: a dense accumulator over every vertex and the vertices it holds
// mass at, in first-touch order. Every entry is zero between passes: a pass
// that reads a step or level clears what it touched. Masses added are
// positive (zero ones are skipped), so a zero entry is an untouched one.
type rowAcc struct {
	val     []float64
	touched []uint32
}

// add adds m > 0 to v's entry.
func (a *rowAcc) add(v uint32, m float64) {
	if a.val[v] == 0 {
		a.touched = append(a.touched, v)
	}
	a.val[v] += m
}

// clear zeroes a's entries and empties its touched list.
func (a *rowAcc) clear() {
	for _, v := range a.touched {
		a.val[v] = 0
	}
	a.touched = a.touched[:0]
}

// acc returns the scratch's accumulator, allocating its dense array on
// first use: the push and the backward pass both run in it.
func (s *scratch) acc() *rowAcc {
	a := &s.lin
	if a.val == nil {
		a.val = make([]float64, s.n)                  // once per scratch, on its first push or linear query
		a.touched = make([]uint32, 0, scratchSupport) // likewise
	}
	return a
}

// source is vertex v of a backward level and its c·r(v).
type source struct {
	v  uint32
	cr float64
}

// linearForwardInto builds all T steps of u's walk distribution into wd as
// walkDistInto does, but leaves each step in first-touch order: the linear
// scorer's forward half.
//
//lint:hotpath linear forward: every step of every linear query
func (e *Snapshot) linearForwardInto(wd *walkDist, s *scratch, u uint32) {
	e.pushWalkDistInto(wd, s, u, 1/float64(e.p.RAlpha), false)
}

// addDiag adds d ⊙ xₜ, step t of wd, to a after level t's scatter. At t ≥ 1
// it leaves out, and returns the largest weight of, each entry the scatter
// did not reach whose weight cᵗ·d(w)·xₜ(w) the next level would prune.
func (e *Snapshot) addDiag(a *rowAcc, wd *walkDist, t int, eps float64) (pruned float64) {
	ct := e.cpow[t]
	for i, w := range wd.verts[t] {
		switch m := e.p.dval(w) * wd.mass(t, i); {
		case m <= 0:
		case t > 0 && a.val[w] == 0 && ct*m < eps:
			pruned = max(pruned, ct*m)
		default:
			a.add(w, m)
		}
	}
	return pruned
}

// backwardInto runs the pruned backward pass over the forward distribution
// wd at prune threshold eps and returns the accumulator that holds ŝ = r_0
// (the caller reads it and clears it, touched list and entries), the slack
// Σ_t max pruned c^(t+1)·r(i), and the number of relaxations (edges
// scattered along). A level reads and clears r_{t+1}, lifting the sources
// that survive the prune into s.srcs, and scatters them back into the same
// accumulator in their level's touched order, a source's out-edges in CSR
// order, so every entry is the same sum in the same order each time: a pure
// function of (graph, wd, eps). ctx is checked once per level; a cancelled
// pass leaves the accumulator clear and returns ctx.Err().
//
//lint:hotpath backward pass: every relaxation of a linear query
func (e *Snapshot) backwardInto(ctx context.Context, s *scratch, wd *walkDist, eps float64) (row *rowAcc, slack float64, relax int, err error) {
	a := s.acc()
	h := wd.steps()
	if h == 0 {
		return a, 0, 0, nil
	}
	pruned := e.addDiag(a, wd, h-1, eps)
	for t := h - 2; t >= 0; t-- {
		// a holds r_{t+1} but the entries already weighed into pruned.
		if err := ctx.Err(); err != nil {
			a.clear()
			return nil, 0, relax, err
		}
		ct := e.cpow[t+1]
		srcs := s.srcs[:0]
		for _, i := range a.touched {
			r := a.val[i]
			a.val[i] = 0
			if w := ct * r; w < eps {
				pruned = max(pruned, w)
				continue
			}
			srcs = append(srcs, source{i, e.p.C * r})
		}
		a.touched = a.touched[:0]
		s.srcs = srcs
		slack += pruned
		for _, src := range srcs {
			out := e.g.Out(src.v)
			for _, j := range out {
				a.add(j, src.cr/float64(e.g.InDegree(j)))
			}
			relax += len(out)
		}
		pruned = e.addDiag(a, wd, t, eps)
	}
	return a, slack, relax, nil
}

// linearRow returns u's row pruned at theta/linearEpsDiv: every vertex but u
// whose score ŝ is at least theta, bounded by its own score, in sortBounds
// order. It aliases s.bounds and leaves the accumulator clear.
func (e *Snapshot) linearRow(ctx context.Context, s *scratch, u uint32, theta float64) ([]boundedCand, error) {
	e.linearForwardInto(&s.wd, s, u)
	row, _, _, err := e.backwardInto(ctx, s, &s.wd, theta/linearEpsDiv)
	if err != nil {
		return nil, err
	}
	bs := s.bounds[:0]
	for _, v := range row.touched {
		if sc := row.val[v]; sc >= theta && v != u {
			bs = append(bs, boundedCand{v, sc})
		}
		row.val[v] = 0
	}
	row.touched = row.touched[:0]
	s.bounds = bs
	sortBounds(bs)
	return bs, nil
}

// linearPlan returns the candidates of a linear query at u and theta. A
// threshold at or above the serving Theta keeps the prefix at or above it of
// the serving row: from the row cache, whose part in it goes to stats, or
// computed on s (and published there). One below Theta needs a row of its
// own, pruned at theta/linearEpsDiv, which bypasses the cache. So every
// query prunes at min(theta, Theta)/linearEpsDiv: a lower threshold prunes
// no more, and since pruned mass is non-negative no score falls as the
// threshold does — a threshold answer holds every top-k entry at or above
// its threshold. A row is a pure function of (snapshot, u, theta), so the
// cache changes where the work happens, never a result. The returned slice
// is read-only: on a hit it is the cached one.
func (e *Snapshot) linearPlan(ctx context.Context, s *scratch, u uint32, theta float64, stats *QueryStats) ([]boundedCand, error) {
	if theta < e.p.Theta {
		return e.linearRow(ctx, s, u, theta)
	}
	bs, err := e.servingRow(ctx, s, u, stats)
	if err != nil {
		return nil, err
	}
	// bs is in descending bound order: its entries at or above theta lead.
	return bs[:sort.Search(len(bs), func(i int) bool { return bs[i].ub < theta })], nil
}

// servingRow returns u's row at the serving Theta, from the row cache where
// there is one.
func (e *Snapshot) servingRow(ctx context.Context, s *scratch, u uint32, stats *QueryStats) ([]boundedCand, error) {
	if e.rows == nil {
		return e.linearRow(ctx, s, u, e.p.Theta)
	}
	if ent := e.rows.get(u); ent != nil {
		stats.CacheHits++
		return ent.val, nil
	}
	bs, err := e.linearRow(ctx, s, u, e.p.Theta)
	if err != nil {
		return nil, err
	}
	stats.CacheMisses++
	stats.CacheEvictions += e.rows.put(newRowEntry(u, bs))
	return bs, nil
}

// rowEntryOverhead is the fixed footprint of a row-cache entry: the struct
// in its 64-byte size class and its slot in a ring that grows by doubling.
const rowEntryOverhead = 64 + 16

type rowEntry = cacheEntry[[]boundedCand]

// newRowEntry copies the row bs into an immutable entry charged 16 bytes
// (id, padding, score) for each candidate its array has room for.
func newRowEntry(u uint32, bs []boundedCand) *rowEntry {
	row := append([]boundedCand(nil), bs...)
	return &rowEntry{key: u, size: rowEntryOverhead + 16*int64(cap(row)), val: row}
}
