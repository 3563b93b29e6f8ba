package core

import (
	"math"
	"slices"
	"sort"
)

// This file implements the SimRank upper bounds of Section 6 and the one
// that replaces the paper's second.
//
// L1 bound (Algorithm 2): for a query u, α(u,d,t) is the largest
// D_ww·P{u⁽ᵗ⁾=w} over vertices w at undirected distance d from u, and
// β(u,d) = Σ_t cᵗ·max_{d−t ≤ d' ≤ d+t} α(u,d',t) dominates s⁽ᵀ⁾(u,v) for
// every v at distance d (Proposition 4). Effective for low-degree queries
// whose walk distributions stay sparse. Computed at query time, in the plans
// of the strategies that enumerate candidates from the ball (buildPlan): it
// reads distances, and only they have them.
//
// Degree bound (DegreeBound), in place of the paper's L2 bound (Algorithm 3,
// Proposition 6), which needed R walks per vertex in the preprocess and an
// n·T table: B(v) = maxD·(c/indeg(v) + c²(1−c^(T−2))/(1−c)) dominates
// s⁽ᵀ⁾(u,v) for every u ≠ v. It reads v's in-degree alone.

// walkDist is the pushed distribution of a vertex's walk positions,
// P{u⁽ᵗ⁾ = w}, stored per step as an ascending support and its masses:
// verts[t] lists the vertices with nonzero mass ascending, massw[t] their
// masses. The ascending order every consumer relies on (dotSeries' merge
// join, computeL1From, forEach, the index sweep of dotPositions) comes
// from scratch.orderTouched, not from a comparison sort. The linear
// scorer's forward (linearForwardInto) is the one distribution left in
// first-touch order; nothing but its backward pass reads it. A distribution
// holds no directory: the scoring kernels probe it through a slotIndex,
// which scoreBlock builds per scored block (DESIGN.md §4).
//
// A mass is stored as its float64 bits in two uint32 words, low half
// first, so that a cached copy (prolog.go) is one flat array of words.
//
// A query builds one (queryDistInto) — by the thresholded push that
// stands for the R = RAlpha walks of the paper's Algorithm 2 — and uses it
// as the u-side of every candidate's single-pair estimate, which removes
// the u-side sampling noise from the scores, and for β where the plan
// has a ball. It stops at the query's horizon: queryDistInto empties
// the trailing steps that horizon proves worth less than the series' first
// omitted term, and every consumer stops at (or skips) a step with an empty
// support. A trimmed distribution's horizon is its number of nonempty
// steps, so it goes wherever the distribution is copied or carried.
type walkDist struct {
	T     int
	verts [][]uint32
	massw [][]uint32
	// back is the array a push cuts its steps' slices from (reset empties
	// it, keeping its capacity); a cached copy has its own (prolog.go).
	back []uint32
}

// noDist is the distribution of no steps a query plan without candidates
// stands on; nothing writes to it.
var noDist walkDist

// reset prepares the distribution for T steps, keeping backing arrays.
func (wd *walkDist) reset(T int) {
	wd.T = T
	if cap(wd.verts) < T {
		wd.verts = append(make([][]uint32, 0, T), wd.verts...)
		wd.massw = append(make([][]uint32, 0, T), wd.massw...)
	}
	wd.verts = wd.verts[:T]
	wd.massw = wd.massw[:T]
	wd.back = wd.back[:0]
	wd.trim(0)
}

// trim empties steps t ≥ h, keeping their backing arrays.
func (wd *walkDist) trim(h int) {
	for t := h; t < wd.T; t++ {
		wd.verts[t] = wd.verts[t][:0]
		wd.massw[t] = wd.massw[t][:0]
	}
}

// support reports the number of vertices with nonzero mass at step t.
func (wd *walkDist) support(t int) int { return len(wd.verts[t]) }

// steps returns the number of leading nonempty steps: a query side's
// horizon once trimmed (queryDistInto), and the most a score against it
// reads — every consumer stops at the first empty step.
func (wd *walkDist) steps() int {
	h := 0
	for h < wd.T && len(wd.verts[h]) > 0 {
		h++
	}
	return h
}

// lookup returns the index of w in step t's support, or -1: a binary
// search, for the callers off the scoring path (the kernels probe a
// slotIndex).
func (wd *walkDist) lookup(t int, w uint32) int {
	if i, ok := slices.BinarySearch(wd.verts[t], w); ok {
		return i
	}
	return -1
}

// mass returns the probability mass of step t's i-th support vertex.
func (wd *walkDist) mass(t, i int) float64 {
	m := wd.massw[t][2*i : 2*i+2]
	return math.Float64frombits(uint64(m[0]) | uint64(m[1])<<32)
}

// prob returns P{u⁽ᵗ⁾ = w}.
func (wd *walkDist) prob(t int, w uint32) (float64, bool) {
	if i := wd.lookup(t, w); i >= 0 {
		return wd.mass(t, i), true
	}
	return 0, false
}

// forEach calls fn for every (vertex, mass) of step t in ascending vertex
// order.
func (wd *walkDist) forEach(t int, fn func(w uint32, pr float64)) {
	for i, w := range wd.verts[t] {
		fn(w, wd.mass(t, i))
	}
}

// slotIndex is the scoring index of one query-side distribution: for
// every step t it answers "at which index of verts[t], if any, is w" in
// two loads and no loop. uid maps each vertex of the union of the
// distribution's nonempty steps to a 1-based union id (0 for every other
// vertex); row t of slots holds, for each union id, the vertex's 1-based
// position in step t's support, and 0 where the vertex is not in it — so
// row[0] is 0 and a probe row[uid[w]] − 1 is the index or −1, for every w.
// Built once per scan (search, shardScan) on the query's scratch, read by
// every block it scores, and cleared by walking the union: the n-entry
// uid array is all zero between builds, allocated on a scratch's first
// build, and never stored in a cache.
type slotIndex struct {
	wd     *walkDist
	uid    []uint32
	union  []uint32
	slots  []uint32
	stride int
}

// build indexes the nonempty steps of wd, a distribution over n vertices,
// in O(Σ_t S_t) for the union and the rows' positions plus the rows' clear;
// the index must be clear (clear).
//
//lint:hotpath scoring index build, once per scan that scores
func (x *slotIndex) build(wd *walkDist, n int) {
	if x.uid == nil {
		x.uid = make([]uint32, n) // once per scratch that scores, on its first scan
	}
	uid, union := x.uid, x.union[:0]
	h := wd.steps()
	for t := 0; t < h; t++ {
		for _, w := range wd.verts[t] {
			if uid[w] == 0 {
				union = append(union, w)
				uid[w] = uint32(len(union))
			}
		}
	}
	stride := len(union) + 1
	if cap(x.slots) < h*stride {
		x.slots = make([]uint32, 2*h*stride) // amortized pooled growth; steady state reuses the scratch capacity
	}
	slots := x.slots[:h*stride]
	clear(slots)
	for t := 0; t < h; t++ {
		row := slots[t*stride : (t+1)*stride]
		for i, w := range wd.verts[t] {
			row[uid[w]] = uint32(i + 1)
		}
	}
	x.wd, x.union, x.slots, x.stride = wd, union, slots, stride
}

// clear zeroes uid again, in O(union), and lets go of the distribution.
//
//lint:hotpath scoring index clear, once per scan that scores
func (x *slotIndex) clear() {
	for _, w := range x.union {
		x.uid[w] = 0
	}
	x.union = x.union[:0]
	x.wd = nil
}

// row returns step t's slot row, for t below the distribution's number of
// leading nonempty steps. A loop over one step probes it as
// int(row[uid[w]]) − 1; lookup is that probe alone.
func (x *slotIndex) row(t int) []uint32 {
	return x.slots[t*x.stride : (t+1)*x.stride]
}

// lookup returns the index of w in step t's support, or -1.
func (x *slotIndex) lookup(t int, w uint32) int {
	return int(x.row(t)[x.uid[w]]) - 1
}

// pushWalkDistInto computes u's per-step walk distributions by sparse
// push into wd: step t hands each support vertex's mass to its
// in-neighbours in equal shares, but only a vertex whose share
// mass/indeg is at least minShare; a vertex below it stays in its step's
// support, where it is scored, and is not pushed further. A pushed w with
// mass m relaxes indeg(w) ≤ m/minShare in-edges, so one step relaxes at
// most (its mass)/minShare ≤ 1/minShare, and every cell is at or below the
// exact Pᵗe_u[w] (minShare 0 pushes everything: the exact distribution).
// A step accumulates in the scratch's dense rowAcc, one random access a
// relaxation, which is clear before and after it. With ordered, each step
// is left ascending (orderTouched) before the next is pushed from it — the
// order every Monte-Carlo consumer reads (walkDist); without, in
// first-touch order, which only the linear scorer reads (linearForwardInto).
// Vertices are pushed in their step's order and a vertex's in-edges in CSR
// order, so every mass is the same sum in the same order wherever and
// however often it is computed — a pure function of (graph, u, minShare,
// ordered). Each nonempty step's α*(u,t) = max_w D_ww·p_u,t(w) is left in
// s.peak (horizon).
//
//lint:hotpath query-side propagation: the whole distribution of every prolog miss
func (e *Snapshot) pushWalkDistInto(wd *walkDist, s *scratch, u uint32, minShare float64, ordered bool) {
	T := e.p.T
	wd.reset(T)
	if cap(s.peak) < T {
		s.peak = make([]float64, 0, T) // once per scratch
	}
	s.peak = s.peak[:0]
	acc := s.acc()
	for t := 0; t < T; t++ {
		if t == 0 {
			acc.add(u, 1)
		} else {
			for i, w := range wd.verts[t-1] {
				in := e.g.In(w)
				if len(in) == 0 {
					continue
				}
				share := wd.mass(t-1, i) / float64(len(in))
				if share < minShare {
					continue
				}
				for _, x := range in {
					acc.add(x, share)
				}
			}
		}
		S := len(acc.touched)
		if S == 0 {
			break // no mass pushed on; remaining steps stay empty
		}
		// The step's vertices and then its mass words go to the end of
		// back, grown once for both, so the appends stay in one array and
		// the step's slices are cut from it.
		wd.back = slices.Grow(wd.back, 3*S)
		lo := len(wd.back)
		wd.back = wd.back[:lo+S]
		if ordered {
			s.orderTouched(wd.back[lo:], acc.touched)
		} else {
			copy(wd.back[lo:], acc.touched)
		}
		peak := 0.0
		for _, w := range wd.back[lo : lo+S] {
			m := acc.val[w]
			acc.val[w] = 0
			b := math.Float64bits(m)
			wd.back = append(wd.back, uint32(b), uint32(b>>32))
			if a := e.p.dval(w) * m; a > peak {
				peak = a
			}
		}
		acc.touched = acc.touched[:0]
		wd.verts[t] = wd.back[lo : lo+S : lo+S]
		wd.massw[t] = wd.back[lo+S : lo+3*S : lo+3*S]
		s.peak = append(s.peak, peak)
	}
}

// walkDistInto builds all T steps of u's walk distribution into wd, each
// step ascending: the push with a share floor of 1/RAlpha, the mass one of
// the paper's RAlpha query walks carries, so a step costs at most the
// RAlpha relaxations of the walks it stands for. It depends on the graph
// and u alone, so every shard, worker and repeat of a query agrees on it.
// The T-term series is defined over this one; queries score against its
// trimmed form (queryDistInto).
func (e *Snapshot) walkDistInto(wd *walkDist, s *scratch, u uint32) {
	e.pushWalkDistInto(wd, s, u, 1/float64(e.p.RAlpha), true)
}

// queryDistInto builds the query-side distribution of u into wd, the one
// every query plan stands on: walkDistInto's, emptied from the horizon h(u)
// on, which it returns — a pure function of (snapshot, u) like the builder.
func (e *Snapshot) queryDistInto(wd *walkDist, s *scratch, u uint32) int {
	e.walkDistInto(wd, s, u)
	h := e.horizon(s.peak)
	wd.trim(h)
	return h
}

// horizon returns the number of leading steps a query keeps of a
// distribution whose per-step maxima α*(u,t) = max_w D_ww·p̂_u,t(w) —
// Algorithm 2's α maximised over distance — the builder left in peak, one
// for each nonempty step; peak is consumed. It is the smallest h ≥ 1 with
//
//	tail(h) = Σ_{t=h}^{T−1} cᵗ·α*(u,t) ≤ c^T·max_w D_ww = tailTol,
//
// the most the first term the series omits anyway could be worth. For
// every candidate v, over the same walks on both sides, dropping the steps
// t ≥ h lowers the estimate by no more than tail(h) and never raises it:
// step t contributes cᵗ·Σ_w p̂_u,t(w)·D_ww·p̂_v,t(w), which is at least 0
// and at most cᵗ·α*(u,t)·Σ_w p̂_v,t(w) ≤ cᵗ·α*(u,t) (Proposition 4's
// argument). The rule reads C, T and D only — no parameter of its own. See
// DESIGN.md §4 for what it keeps on the benchmark's graphs and why the
// candidate walks still take their T−1 steps.
func (e *Snapshot) horizon(peak []float64) int {
	ct := 1.0
	for t := range peak {
		peak[t] *= ct
		ct *= e.p.C
	}
	h, tail := len(peak), 0.0
	for ; h > 1; h-- {
		if tail += peak[h-1]; tail > e.tailTol {
			break
		}
	}
	return h
}

// dotSeries evaluates the truncated series deterministically from two
// walk distributions: Σ_t cᵗ Σ_w xₜ(w)·D_ww·yₜ(w). Both supports are
// sorted, so this is a per-step merge join with a fixed summation order.
// No query path calls it: the concentration gate reads it as the exact
// mean that a candidate's sampled score estimates.
func (e *Snapshot) dotSeries(x, y *walkDist) float64 {
	sum := 0.0
	ct := 1.0
	for t := 0; t < e.p.T; t++ {
		if t > 0 {
			ct *= e.p.C
		}
		xv, yv := x.verts[t], y.verts[t]
		if len(xv) == 0 || len(yv) == 0 {
			break
		}
		i, j := 0, 0
		for i < len(xv) && j < len(yv) {
			switch {
			case xv[i] < yv[j]:
				i++
			case xv[i] > yv[j]:
				j++
			default:
				sum += ct * e.p.dval(xv[i]) * x.mass(t, i) * y.mass(t, j)
				i++
				j++
			}
		}
	}
	return sum
}

// l1Table holds the per-query result of Algorithm 2.
type l1Table struct {
	// beta[d] bounds s⁽ᵀ⁾(u, v) for every v at undirected distance d, for
	// d = 0..DMax.
	beta []float64
}

// computeL1From evaluates Algorithm 2's α and β from the query's walk
// distribution. dist is the dense undirected-distance array of the query's
// local ball (-1 = not discovered). exploredRadius is the distance up to
// which dist is complete: every vertex at distance ≤ exploredRadius has a
// non-negative entry. Support vertices with no distance (possible when the
// local BFS was truncated by the ball budget) are folded into a per-step
// overflow maximum so that β remains a valid upper bound. The returned
// table aliases s and is valid until the scratch's next query.
func (e *Snapshot) computeL1From(s *scratch, wd *walkDist, dist []int32, exploredRadius int) *l1Table {
	T, dmax := e.p.T, e.p.DMax
	// alpha[d*T + t] = α(u, d, t).
	s.alpha = floatBuf(s.alpha, (dmax+1)*T)
	s.overflow = floatBuf(s.overflow, T)
	alpha, overflow := s.alpha, s.overflow
	for t := 0; t < T; t++ {
		for i, w := range wd.verts[t] {
			val := e.p.dval(w) * wd.mass(t, i)
			d := dist[w]
			if d < 0 || int(d) > dmax {
				// Distance unknown (truncated BFS) or beyond DMax:
				// account for it conservatively.
				if val > overflow[t] {
					overflow[t] = val
				}
				continue
			}
			if val > alpha[int(d)*T+t] {
				alpha[int(d)*T+t] = val
			}
		}
	}
	// β(u, d) = Σ_t cᵗ · max_{max(0,d−t) ≤ d' ≤ min(dmax,d+t)} α(u, d', t),
	// where distances beyond exploredRadius use the overflow maximum.
	s.l1.beta = floatBuf(s.l1.beta, dmax+1)
	for d := 0; d <= dmax; d++ {
		sum := 0.0
		ct := 1.0
		for t := 0; t < T; t++ {
			lo, hi := d-t, d+t
			if lo < 0 {
				lo = 0
			}
			best := 0.0
			if hi > exploredRadius {
				best = overflow[t]
			}
			if hi > dmax {
				hi = dmax
			}
			for dp := lo; dp <= hi; dp++ {
				if a := alpha[dp*T+t]; a > best {
					best = a
				}
			}
			sum += ct * best
			ct *= e.p.C
		}
		s.l1.beta[d] = sum
	}
	return &s.l1
}

// bound returns β(u, d) for distance d, or +Inf when d exceeds the table.
func (l *l1Table) bound(d int) float64 {
	if l == nil || d < 0 || d >= len(l.beta) {
		return math.Inf(1)
	}
	return l.beta[d]
}

// DistanceBound returns the distance-only upper bound on s⁽ᵀ⁾(u, v) for
// vertices at undirected distance d: two walks meeting at step t imply
// d(u, v) ≤ 2t, so no term before t = ⌈d/2⌉ contributes, and each term is
// at most max_w D_ww, giving Σ_{t ≥ ⌈d/2⌉} cᵗ·maxD = maxD·c^⌈d/2⌉/(1−c).
// With the default D = (1−c)·I this is exactly c^⌈d/2⌉. (The paper states
// s(u,v) ≤ c^d; this variant is the one provable for undirected distance.)
//
// Distances up to DMax — every distance a query's ball can produce — are
// read from a table filled once per snapshot (newDistBounds).
func (e *Snapshot) DistanceBound(d int) float64 {
	if d <= 0 {
		return 1
	}
	if d < len(e.distBound) {
		return e.distBound[d]
	}
	return e.distScale * math.Pow(e.p.C, float64((d+1)/2))
}

// DegreeBound returns the in-degree upper bound on s⁽ᵀ⁾(u, v) for every
// u ≠ v: B(v) = maxD·(c/indeg(v) + c²(1−c^(T−2))/(1−c)), and 0 when v has no
// in-edge. The t = 0 term of the series vanishes for u ≠ v; the t = 1 term
// is Σ_w P{u⁽¹⁾=w}·D_ww·P{v⁽¹⁾=w} ≤ maxD·max_w P{v⁽¹⁾=w} = maxD/indeg(v);
// each later term is at most cᵗ·maxD. Between the candidates of one query it
// orders as γ(v,1) = √((1−c)/indeg(v)) does, the only part of the L2 bound
// that told them apart up to t = 1 (DESIGN.md §4).
func (e *Snapshot) DegreeBound(v uint32) float64 {
	k := e.g.InDegree(v)
	if k == 0 {
		return 0
	}
	return e.degScale/float64(k) + e.degTail
}

// distBounds holds what the bounds and the horizon read of Params alone,
// evaluated once per snapshot (newDistBounds): DistanceBound's maxD/(1−c)
// factor and its values for d = 0..DMax, so candBound neither rescans
// Params.D for its maximum nor calls math.Pow per candidate; DegreeBound's
// two constants maxD·c and maxD·c²(1−c^(T−2))/(1−c); the horizon's
// tolerance c^T·maxD; and cpow[t] = cᵗ for t = 0..T, the linear scorer's
// prune weights (linear.go).
type distBounds struct {
	distScale, tailTol float64
	distBound          []float64
	degScale, degTail  float64
	cpow               []float64
}

// newDistBounds evaluates p's distBounds.
func newDistBounds(p *Params) distBounds {
	maxD := 1 - p.C
	if p.D != nil {
		maxD = 0
		for _, v := range p.D {
			if v > maxD {
				maxD = v
			}
		}
	}
	c := p.C
	b := distBounds{
		distScale: maxD / (1 - c),
		tailTol:   maxD * math.Pow(c, float64(p.T)),
		distBound: make([]float64, p.DMax+1),
		cpow:      make([]float64, p.T+1),
	}
	for t := range b.cpow {
		b.cpow[t] = math.Pow(c, float64(t))
	}
	if p.T > 1 { // a one-term series has no t ≥ 1 term to bound
		b.degScale = maxD * c
		b.degTail = maxD * c * c * (1 - math.Pow(c, float64(p.T-2))) / (1 - c)
	}
	b.distBound[0] = 1
	for d := 1; d <= p.DMax; d++ {
		b.distBound[d] = b.distScale * math.Pow(c, float64((d+1)/2))
	}
	return b
}

// L1Bound computes β(u, ·) for the query vertex u and returns the bound
// evaluated at distance d(u,v). Exposed for tests and ablation studies;
// the query phase shares one table across all candidates. It reads all T
// steps of u's distribution (walkDistInto) and so bounds the T-term series
// s⁽ᵀ⁾; the β inside a ball-strategy plan reads the plan's trimmed
// distribution and bounds the served score, which is never above it.
func (e *Snapshot) L1Bound(u uint32, d int) float64 {
	s := e.getScratch()
	defer e.putScratch(s)
	dist := s.distBuf()
	s.ball, _ = e.g.UndirectedBallInto(u, e.p.DMax, -1, dist, s.ball[:0])
	defer s.resetDist()
	e.walkDistInto(&s.wd, s, u)
	tbl := e.computeL1From(s, &s.wd, dist, e.p.DMax)
	return tbl.bound(d)
}

// sortScoredDesc orders scored results best-first with the deterministic
// tie-break used across the package.
func sortScoredDesc(xs []Scored) {
	sort.Slice(xs, func(i, j int) bool { return scoredLess(xs[j], xs[i]) })
}
