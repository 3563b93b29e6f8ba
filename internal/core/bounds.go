package core

import (
	"math"
	"math/bits"
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
// P{u⁽ᵗ⁾ = w}, stored per step as an ascending support with a directory
// over it: verts[t] lists the vertices with nonzero mass ascending and
// dir[t] answers "at which index, if any, is w" (lookup)
// without a search. The directory comes in two kinds, chosen per step by
// the support's density alone (denseSupport):
//
//   - sparse steps keep bucket offsets (bucketIndex): bucket b = w >> shift[t]
//     occupies verts[t][dir[t][b]:dir[t][b+1]], with about one bucket per two
//     support vertices (see bucketing) — two directory reads and a scan of
//     a vertex or two;
//   - dense steps (shift[t] == rankStep) keep a rank bitset (rankIndex): one
//     bit per vertex of the graph and, per 64 vertices, the number of
//     support vertices before them — one word load and a bit test on a
//     miss, a second load and a popcount on a hit, and no loop.
//
// The ascending order every consumer relies on (dotSeries' merge join,
// computeL1From, forEach, the index sweep of dotPositions) is a by-product
// of building the directory — scratch.orderTouched for buckets, enumerating
// the set bits for a rank bitset — not of a comparison sort.
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
	dir   [][]uint32
	shift []uint8
	massw [][]uint32
}

// noDist is the distribution of no steps a query plan without candidates
// stands on; nothing writes to it.
var noDist walkDist

// denseDiv is the density at which a step's directory becomes a rank
// bitset: a support of S vertices on an n-vertex graph is dense when
// S ≥ n/denseDiv. A bitset costs 12 bytes per 64 vertices of the graph
// whatever S is, so at the threshold it spends 6 bytes a support vertex
// against the 2 to 4 of bucket offsets, and less than they do from about
// n/16 on; below it the price per vertex grows without bound (a 30-vertex
// support on a 100 000-vertex web graph would pay 625 bytes a vertex),
// which is why sparse steps keep buckets. See DESIGN.md §4 for the
// sensitivity runs behind 32.
const denseDiv = 32

// rankStep in shift[t] marks step t's directory as a rank bitset. A bucket
// shift is at most 32.
const rankStep = 0xff

// denseSupport reports whether a support of S of n vertices gets a rank
// bitset: a function of (n, S) and nothing else.
func denseSupport(n, S int) bool { return S*denseDiv >= n }

// rankWords is the number of 64-vertex words of a rank bitset over n
// vertices; the directory holds three uint32 for each.
func rankWords(n int) int { return (n + 63) >> 6 }

// bucketIndex returns the position of w in a sparse step's support verts,
// or -1: off and shift are the step's bucket directory, and w's bucket is
// scanned up to the first vertex ≥ w. (The two index functions take the
// step's slices as plain arguments: a struct of them is too large for the
// compiler to keep in registers, which doubled the cost of a probe.)
func bucketIndex(off, verts []uint32, shift uint8, w uint32) int {
	b := w >> shift
	for i, end := off[b], off[b+1]; i < end; i++ {
		if x := verts[i]; x >= w {
			if x == w {
				return int(i)
			}
			break
		}
	}
	return -1
}

// rankIndex returns the position of w in a dense step's support, or -1:
// bits holds one bit per vertex, as the low and high half of each
// 64-vertex word in turn, rank[k] counts the support vertices below 64k,
// and w's rank among the set bits is its index because the support is
// ascending.
func rankIndex(bits32, rank []uint32, w uint32) int {
	if bits32[w>>5]>>(w&31)&1 == 0 {
		return -1
	}
	k := w >> 6
	word := uint64(bits32[2*k]) | uint64(bits32[2*k+1])<<32
	return int(rank[k]) + bits.OnesCount64(word&(1<<(w&63)-1))
}

// reset prepares the distribution for T steps, keeping backing arrays.
func (wd *walkDist) reset(T int) {
	wd.T = T
	for len(wd.verts) < T {
		wd.verts = append(wd.verts, nil)
		wd.dir = append(wd.dir, nil)
		wd.shift = append(wd.shift, 0)
		wd.massw = append(wd.massw, nil)
	}
	wd.verts = wd.verts[:T]
	wd.dir = wd.dir[:T]
	wd.shift = wd.shift[:T]
	wd.massw = wd.massw[:T]
	wd.trim(0)
}

// trim empties steps t ≥ h, keeping their backing arrays.
func (wd *walkDist) trim(h int) {
	for t := h; t < wd.T; t++ {
		wd.verts[t] = wd.verts[t][:0]
		wd.dir[t] = wd.dir[t][:0]
		wd.shift[t] = 0
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

// setSupport installs the current tally's touched list as step t's
// support, ascending, with the directory kind its density calls for. The
// row must be empty (reset).
func (wd *walkDist) setSupport(t int, s *scratch) {
	if denseSupport(s.n, len(s.touched)) {
		wd.setRankSupport(t, s.n, s.touched)
	} else {
		wd.setBucketSupport(t, s)
	}
}

// setBucketSupport orders the tally's touched list by buckets and installs
// it with its bucket offsets as step t's support.
func (wd *walkDist) setBucketSupport(t int, s *scratch) {
	dir, shift := s.orderTouched()
	wd.verts[t] = append(wd.verts[t], s.touched...)
	wd.dir[t] = append(wd.dir[t], dir...)
	wd.shift[t] = shift
}

// setRankSupport builds step t's rank bitset from the unordered support
// touched and reads the ascending support back out of it: one pass sets
// the bits, one pass over the words writes each word's rank and lists its
// set bits, so the order costs no counting, scatter or sort.
//
//lint:hotpath dense-step support ordering and directory build, up to T times per uncached prolog
func (wd *walkDist) setRankSupport(t, n int, touched []uint32) {
	nw := rankWords(n)
	d, vs := wd.dir[t], wd.verts[t]
	if cap(d) < 3*nw {
		d = make([]uint32, 3*nw) //lint:ignore hotalloc amortized pooled growth; steady state reuses the row's capacity
	}
	if cap(vs) < len(touched) {
		vs = make([]uint32, len(touched)) //lint:ignore hotalloc amortized pooled growth; steady state reuses the row's capacity
	}
	d, vs = d[:3*nw], vs[:len(touched)]
	clear(d)
	for _, w := range touched {
		d[w>>5] |= 1 << (w & 31)
	}
	i := 0
	for k := 0; k < nw; k++ {
		d[2*nw+k] = uint32(i)
		for b := uint64(d[2*k]) | uint64(d[2*k+1])<<32; b != 0; b &= b - 1 {
			vs[i] = uint32(k<<6 + bits.TrailingZeros64(b))
			i++
		}
	}
	wd.verts[t], wd.dir[t], wd.shift[t] = vs, d, rankStep
}

// dense reports whether step t's directory is a rank bitset.
func (wd *walkDist) dense(t int) bool { return wd.shift[t] == rankStep }

// buckets returns step t's bucket directory, bucketIndex's arguments; the
// step must be sparse.
func (wd *walkDist) buckets(t int) (off, verts []uint32, shift uint8) {
	return wd.dir[t], wd.verts[t], wd.shift[t]
}

// ranks returns step t's rank bitset, rankIndex's arguments; the step must
// be dense.
func (wd *walkDist) ranks(t int) (bits32, rank []uint32) {
	d := wd.dir[t]
	nw := len(d) / 3
	return d[:2*nw], d[2*nw:]
}

// lookup returns the index of w in step t's support, or -1. Step t must
// have a nonempty support. Loops over many vertices of one step pick the
// directory kind once and call its index function directly.
func (wd *walkDist) lookup(t int, w uint32) int {
	if wd.dense(t) {
		bits32, rank := wd.ranks(t)
		return rankIndex(bits32, rank, w)
	}
	off, verts, shift := wd.buckets(t)
	return bucketIndex(off, verts, shift, w)
}

// mass returns the probability mass of step t's i-th support vertex.
func (wd *walkDist) mass(t, i int) float64 {
	m := wd.massw[t][2*i : 2*i+2]
	return math.Float64frombits(uint64(m[0]) | uint64(m[1])<<32)
}

// prob returns P{u⁽ᵗ⁾ = w}.
func (wd *walkDist) prob(t int, w uint32) (float64, bool) {
	if wd.support(t) == 0 {
		return 0, false
	}
	i := wd.lookup(t, w)
	if i < 0 {
		return 0, false
	}
	return wd.mass(t, i), true
}

// forEach calls fn for every (vertex, mass) of step t in ascending vertex
// order.
func (wd *walkDist) forEach(t int, fn func(w uint32, pr float64)) {
	for i, w := range wd.verts[t] {
		fn(w, wd.mass(t, i))
	}
}

// pushWalkDistInto computes u's per-step walk distributions by sparse
// push into wd: step t hands each support vertex's mass to its
// in-neighbours in equal shares, but only a vertex whose share
// mass/indeg is at least minShare; a vertex below it stays in its step's
// support, where it is scored, and is not pushed further. A pushed w with
// mass m relaxes indeg(w) ≤ m/minShare in-edges, so one step relaxes at
// most (its mass)/minShare ≤ 1/minShare, and every cell is at or below the
// exact Pᵗe_u[w] (minShare 0 pushes everything: the exact distribution).
// Vertices are pushed in ascending order and a vertex's in-edges in CSR
// order, so every mass is the same sum in the same order wherever and
// however often it is computed — a pure function of (graph, u, minShare).
// The accumulator is compact (scratch.pushMass): it holds one float64 per
// vertex touched this step. Each nonempty step's α*(u,t) = max_w
// D_ww·p_u,t(w) is left in s.peak (horizon).
//
//lint:hotpath query-side propagation: the whole distribution of every prolog miss
func (e *Snapshot) pushWalkDistInto(wd *walkDist, s *scratch, u uint32, minShare float64) {
	T := e.p.T
	wd.reset(T)
	s.peak = s.peak[:0]
	for t := 0; t < T; t++ {
		s.beginTally()
		s.push = s.push[:0]
		if t == 0 {
			s.pushMass(u, 1)
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
					s.pushMass(x, share)
				}
			}
		}
		if len(s.touched) == 0 {
			break // no mass pushed on; remaining steps stay empty
		}
		wd.setSupport(t, s)
		peak := 0.0
		for _, w := range wd.verts[t] {
			m := s.push[s.cnt[w]]
			b := math.Float64bits(m)
			wd.massw[t] = append(wd.massw[t], uint32(b), uint32(b>>32))
			if a := e.p.dval(w) * m; a > peak {
				peak = a
			}
		}
		s.peak = append(s.peak, peak)
	}
}

// walkDistInto builds all T steps of u's walk distribution into wd: the
// push with a share floor of 1/RAlpha, the mass one of the paper's RAlpha
// query walks carries, so a step costs at most the RAlpha relaxations of
// the walks it stands for. It depends on the graph and u alone, so every
// shard, worker and repeat of a query agrees on it. The T-term series is
// defined over this one; queries score against its trimmed form
// (queryDistInto).
func (e *Snapshot) walkDistInto(wd *walkDist, s *scratch, u uint32) {
	e.pushWalkDistInto(wd, s, u, 1/float64(e.p.RAlpha))
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
// two constants maxD·c and maxD·c²(1−c^(T−2))/(1−c); and the horizon's
// tolerance c^T·maxD.
type distBounds struct {
	distScale, tailTol float64
	distBound          []float64
	degScale, degTail  float64
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
