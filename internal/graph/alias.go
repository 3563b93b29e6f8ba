package graph

import (
	"fmt"
	"math/bits"

	"repro/internal/rng"
)

// WalkTable is the random-walk sampling kernel over a graph's in-CSR: a
// Walker/Vose alias table per vertex, stored flat and parallel to the
// in-edge layout (slot j of vertex v lives at inStart[v]+j, exactly like
// inAdj). One bounded draw picks an in-neighbour in O(1) regardless of
// the slot weights.
//
// Draw schema (the determinism contract every walk component pins): each
// live walk consumes ONE bounded-uniform draw per step — Lemire's
// multiply-shift with bounded rejection, byte-compatible with
// rng.Uint32n — whose quotient selects the slot and whose fractional
// remainder decides alias acceptance. Dead walks and in-degree-zero
// vertices consume nothing. The schema is consumed identically on the
// alias fast path and the uniform fallback: SimRank's walk distribution
// is uniform over in-neighbours, so its alias tables are degenerate
// (every slot keeps itself with probability 1) and are represented
// implicitly — prob/alias stay nil, no acceptance test runs, and the
// picked slot IS the neighbour, which is bit-for-bit what the explicit
// degenerate table would return. Weighted tables materialize prob/alias
// and run the acceptance test; the slot draw is unchanged.
type WalkTable struct {
	start []uint32 // in-CSR row offsets, aliases the graph's inStart
	adj   []uint32 // in-CSR adjacency, aliases the graph's inAdj

	// prob[k] is slot k's acceptance threshold: the draw keeps slot k
	// when the fractional remainder is < prob[k], and redirects to
	// alias[k] (a slot index relative to the vertex's row) otherwise.
	// Both are nil for uniform (degenerate) tables.
	prob  []uint32
	alias []uint32
}

// fullProb is the saturated acceptance threshold: a slot with weight
// exactly 1/deg keeps itself for every fractional remainder except
// ^uint32(0) (probability 2⁻³²), which is why full slots always alias to
// themselves — the residual redirect must be a no-op.
const fullProb = ^uint32(0)

// walkTableSize enforces the batched kernel's vertex-id ceiling: the
// branch-free dead-walk handling sign-extends positions, so live vertex
// ids must stay below 2^31 (NoVertex is the only id with the top bit
// set). A graph that large would need >16 GiB of CSR alone, so the
// guard is theoretical — but it keeps the kernel honest.
func walkTableSize(n int) {
	if n >= 1<<31 {
		panic("graph: walk tables support at most 2^31-1 vertices")
	}
}

// BuildWalkTable returns the uniform in-neighbour sampling table SimRank
// walks use. Uniform tables are degenerate, so this is O(1): the table
// aliases the graph's CSR arrays and carries no per-slot state.
func (g *Graph) BuildWalkTable() *WalkTable {
	walkTableSize(g.n)
	return &WalkTable{start: g.inStart, adj: g.inAdj}
}

// BuildWeightedWalkTable returns a sampling table where in-edge k of the
// CSR layout is drawn with probability weights[k] (normalized per
// vertex). Rows whose weights are all zero fall back to uniform. Used by
// weighted-walk extensions and by tests; SimRank itself always samples
// uniformly.
func BuildWeightedWalkTable(g *Graph, weights []float64) (*WalkTable, error) {
	walkTableSize(g.n)
	if len(weights) != len(g.inAdj) {
		return nil, fmt.Errorf("graph: %d weights for %d in-edges", len(weights), len(g.inAdj))
	}
	wt := &WalkTable{
		start: g.inStart,
		adj:   g.inAdj,
		prob:  make([]uint32, len(g.inAdj)),
		alias: make([]uint32, len(g.inAdj)),
	}
	var small, large []uint32 // reused slot worklists
	scaled := make([]float64, 0, 64)
	for v := 0; v < g.n; v++ {
		lo, hi := g.inStart[v], g.inStart[v+1]
		if lo == hi {
			continue
		}
		row := weights[lo:hi]
		small, large = buildAliasRow(row, scaled, wt.prob[lo:hi], wt.alias[lo:hi], small, large)
	}
	return wt, nil
}

// buildAliasRow fills one vertex's alias row from its weights using
// Vose's algorithm. Worklists are processed in ascending slot order, so
// the constructed table is a deterministic function of the weights.
func buildAliasRow(w, scaled []float64, prob, alias []uint32, small, large []uint32) ([]uint32, []uint32) {
	d := len(w)
	sum := 0.0
	for _, x := range w {
		if x > 0 {
			sum += x
		}
	}
	if sum <= 0 {
		// Degenerate row: uniform.
		for j := range prob {
			prob[j] = fullProb
			alias[j] = uint32(j)
		}
		return small, large
	}
	scaled = scaled[:0]
	small, large = small[:0], large[:0]
	for j, x := range w {
		if x < 0 {
			x = 0
		}
		p := x * float64(d) / sum
		scaled = append(scaled, p)
		if p < 1 {
			small = append(small, uint32(j))
		} else {
			large = append(large, uint32(j))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		prob[s] = probBits(scaled[s])
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers (either list) have probability 1 up to float error: full
	// acceptance, self alias so the residual redirect is a no-op.
	for _, j := range small {
		prob[j] = fullProb
		alias[j] = j
	}
	for _, j := range large {
		prob[j] = fullProb
		alias[j] = j
	}
	return small, large
}

// probBits quantizes an acceptance probability in [0, 1] to the 32-bit
// threshold compared against the draw's fractional remainder.
func probBits(p float64) uint32 {
	if p >= 1 {
		return fullProb
	}
	if p <= 0 {
		return 0
	}
	return uint32(p * (1 << 32))
}

// Trivial reports whether the table is a degenerate uniform table (no
// per-slot state, acceptance never consulted).
func (wt *WalkTable) Trivial() bool { return wt.prob == nil }

// Slots exposes the flat per-slot acceptance/redirect arrays for
// persistence; both are nil for trivial tables.
func (wt *WalkTable) Slots() (prob, alias []uint32) { return wt.prob, wt.alias }

// AdoptSlots installs persisted per-slot arrays (e.g. views into a
// mapped index file). nil/nil restores the trivial table.
func (wt *WalkTable) AdoptSlots(prob, alias []uint32) error {
	if (prob == nil) != (alias == nil) || (prob != nil && (len(prob) != len(wt.adj) || len(alias) != len(wt.adj))) {
		return fmt.Errorf("graph: alias slot arrays (%d, %d) do not match %d in-edges", len(prob), len(alias), len(wt.adj))
	}
	wt.prob, wt.alias = prob, alias
	return nil
}

// The draw kernels below run the generator on scalar state words
// (rng.Source.State/SetState) rather than through the *rng.Source
// pointer: a pointer-addressed generator forces a memory round-trip per
// draw, and since the draw stream is the kernels' only loop-carried
// dependency, that round-trip would dominate the whole walk step.
// xoshiroStep and the in-loop rejection reproduce rng.Uint32 /
// rng.Uint32n's slow path bit-for-bit; the equivalence is pinned by
// tests here and by the golden draw-sequence tests in internal/rng.

// xoshiroStep advances the scalar xoshiro256** state one draw and
// returns the new state plus the 32-bit output (the top half of the
// 64-bit result, exactly rng.Uint32). Small enough to inline, so the
// state words stay in registers at every call site.
func xoshiroStep(s0, s1, s2, s3 uint64) (uint64, uint64, uint64, uint64, uint32) {
	x := uint32((bits.RotateLeft64(s1*5, 7) * 9) >> 32)
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return s0, s1, s2, s3, x
}

// lemireSlow finishes a bounded draw whose first attempt landed in the
// biased low region, for the pointer-based single-draw path (Next):
// the standard bounded-rejection loop with the threshold computed once,
// byte-compatible with rng.Uint32n's slow path. Cold — rejection
// triggers with probability < d/2³².
func lemireSlow(r *rng.Source, m uint64, d uint32) uint64 {
	thresh := -d % d
	for uint32(m) < thresh {
		m = uint64(r.Uint32()) * uint64(d)
	}
	return m
}

// Next returns the walk successor of v: NoVertex when v has no
// in-neighbours (the walk dies, no draw consumed), otherwise one bounded
// draw from r picks the slot and — for weighted tables — the acceptance
// test may redirect it. Byte-identical to in[r.Uint32n(deg)] on trivial
// tables.
func (wt *WalkTable) Next(r *rng.Source, v uint32) uint32 {
	lo := wt.start[v]
	d := wt.start[v+1] - lo
	if d == 0 {
		return NoVertex
	}
	m := uint64(r.Uint32()) * uint64(d)
	if uint32(m) < d {
		m = lemireSlow(r, m, d)
	}
	k := lo + uint32(m>>32)
	if wt.prob != nil && uint32(m) >= wt.prob[k] {
		k = lo + wt.alias[k]
	}
	return wt.adj[k]
}

// StepLane bounds the batched kernel's lane working set (16 KiB of
// packed row descriptors plus compacted live indices) so it stays
// L1-resident for any walk count. Callers size their lane scratch as
// 2 × min(walks, StepLane).
const StepLane = 1024

// StepWalks advances every live walk in pos one in-link step; walks at
// in-degree-zero vertices die (set to NoVertex). It returns the number
// of walks still alive. lane is caller-provided scratch of at least
// 2 × min(len(pos), StepLane) entries.
//
// The loop is split into a gather pass (read each live walk's CSR row
// offset and degree, compacting the live walks' lane indices — straight-
// line code with no data-dependent branches, so dead walks cost a few
// ALU ops instead of a branch misprediction, and the independent CSR
// loads overlap their cache misses) and a draw pass (bounded draw +
// neighbour pick over the live walks only, in walk order). Draw order is
// identical to stepping the walks one by one: the gather pass consumes
// no randomness and the compacted indices stay ascending.
//
//lint:hotpath batched walk-step kernel, dominates preprocessing and query cost
func (wt *WalkTable) StepWalks(r *rng.Source, pos []uint32, lane []uint64) int {
	alive := 0
	for len(pos) > 0 {
		chunk := len(pos)
		if chunk > StepLane {
			chunk = StepLane
		}
		alive += wt.stepChunk(r, pos[:chunk], lane)
		pos = pos[chunk:]
	}
	return alive
}

// gatherLive packs each live walk's CSR row (offset<<32 | degree) into
// desc, its lane index into idx — both compacted, ascending — parks
// every position at NoVertex (the draw pass rewrites the live ones),
// and returns the live count. Dead walks are handled branch-free:
// sign-extending NoVertex yields an all-ones mask (live vertex ids stay
// below 2^31 — see the walkTableSize guard) that clamps the row index
// to 0 and the degree to 0 with pure ALU ops, and a dead lane writes
// its slots and simply fails to advance the cursor (a CMOV). A
// live/dead mix is the branch predictor's worst case — the pattern
// changes every step — so it must never reach a branch. Kept as a
// standalone looping function (loops don't inline) so the tight body
// gets its own register file instead of spilling inside stepChunk.
func gatherLive(start, pos []uint32, desc, idx []uint64) int {
	desc = desc[:len(pos)]
	idx = idx[:len(pos)]
	live := 0
	for i, v := range pos {
		mask := uint32(int32(v) >> 31)
		u := v &^ mask
		lo := start[u]
		d := (start[u+1] - lo) &^ mask
		desc[live] = uint64(lo)<<32 | uint64(d)
		idx[live] = uint64(i)
		pos[i] = NoVertex
		if d != 0 {
			live++
		}
	}
	return live
}

// stepChunk is one gather+draw round over at most StepLane walks, built
// from three minimal loops so each stays branch-free and register-
// resident. The live/dead mix of a walk population is the branch
// predictor's worst case (it changes every step), so dead walks must
// cost straight-line ALU work, never a misprediction.
func (wt *WalkTable) stepChunk(r *rng.Source, pos []uint32, lane []uint64) int {
	start := wt.start
	if len(start) < 2 {
		// Vertex-free graph: every walk is (or becomes) dead.
		for i := range pos {
			pos[i] = NoVertex
		}
		return 0
	}
	n := len(pos)
	desc, idx := lane[:n], lane[n:2*n]
	live := gatherLive(start, pos, desc, idx)
	desc, idx = desc[:live], idx[:live]
	if wt.prob == nil {
		drawUniform(r, desc, idx, pos, wt.adj)
	} else {
		drawAlias(r, desc, idx, pos, wt.adj, wt.prob, wt.alias)
	}
	return live
}

// drawUniform is the draw pass over the gathered live walks: one
// bounded draw each, in walk order — identical order and consumption to
// stepping the walks one by one. The degenerate (uniform) table keeps
// every slot, so the acceptance load is skipped entirely — same draws,
// same picks. Standalone looping function for the same register-file
// reason as gatherLive; the rng state lives in scalars for the whole
// pass (a pointer-addressed Source round-trips memory on every draw).
func drawUniform(r *rng.Source, desc, idx []uint64, pos, adj []uint32) {
	idx = idx[:len(desc)]
	s0, s1, s2, s3 := r.State()
	for j, e := range desc {
		d := uint32(e)
		var x uint32
		s0, s1, s2, s3, x = xoshiroStep(s0, s1, s2, s3)
		m := uint64(x) * uint64(d)
		if uint32(m) < d {
			// Rejection spelled out rather than in a helper: a CALL in
			// the loop — even a cold one — forces the allocator to keep
			// the hot path's slices in memory across iterations.
			for thresh := -d % d; uint32(m) < thresh; {
				s0, s1, s2, s3, x = xoshiroStep(s0, s1, s2, s3)
				m = uint64(x) * uint64(d)
			}
		}
		pos[idx[j]] = adj[uint32(e>>32)+uint32(m>>32)]
	}
	r.SetState(s0, s1, s2, s3)
}

// drawAlias is drawUniform plus the alias acceptance test: the draw's
// fractional remainder keeps the proposed slot when it lands under
// prob[k], and redirects to alias[k] otherwise.
func drawAlias(r *rng.Source, desc, idx []uint64, pos, adj, prob, alias []uint32) {
	idx = idx[:len(desc)]
	s0, s1, s2, s3 := r.State()
	for j, e := range desc {
		d := uint32(e)
		var x uint32
		s0, s1, s2, s3, x = xoshiroStep(s0, s1, s2, s3)
		m := uint64(x) * uint64(d)
		if uint32(m) < d {
			for thresh := -d % d; uint32(m) < thresh; { // see drawUniform
				s0, s1, s2, s3, x = xoshiroStep(s0, s1, s2, s3)
				m = uint64(x) * uint64(d)
			}
		}
		lo := uint32(e >> 32)
		k := lo + uint32(m>>32)
		if uint32(m) >= prob[k] {
			k = lo + alias[k]
		}
		pos[idx[j]] = adj[k]
	}
	r.SetState(s0, s1, s2, s3)
}

// Walk performs one walk of length T from u, recording the position at
// every step into out (len T+1, out[0] = u; steps after death record
// NoVertex).
func (wt *WalkTable) Walk(r *rng.Source, u uint32, T int, out []uint32) {
	out[0] = u
	wt.WalkStrided(r, u, T, 1, out)
}

// WalkStrided advances one walk from u for T steps, writing the
// position after step t to out[t*stride] (out[0] is NOT written). Draw
// consumption is identical to calling Next step by step; the rng state
// lives in scalar locals for the whole trajectory, so per-step draws
// never round-trip through memory. The strided output lets the
// candidate tally kernel write walk-major columns of its step×walk
// position matrix directly.
func (wt *WalkTable) WalkStrided(r *rng.Source, u uint32, T, stride int, out []uint32) {
	start, adj := wt.start, wt.adj
	prob, alias := wt.prob, wt.alias
	s0, s1, s2, s3 := r.State()
	v := u
	for t := 1; t <= T; t++ {
		if v != NoVertex {
			lo := start[v]
			d := start[v+1] - lo
			if d == 0 {
				v = NoVertex
			} else {
				var x uint32
				s0, s1, s2, s3, x = xoshiroStep(s0, s1, s2, s3)
				m := uint64(x) * uint64(d)
				if uint32(m) < d {
					for thresh := -d % d; uint32(m) < thresh; { // see drawUniform
						s0, s1, s2, s3, x = xoshiroStep(s0, s1, s2, s3)
						m = uint64(x) * uint64(d)
					}
				}
				k := lo + uint32(m>>32)
				if prob != nil && uint32(m) >= prob[k] {
					k = lo + alias[k]
				}
				v = adj[k]
			}
		}
		out[t*stride] = v
	}
	r.SetState(s0, s1, s2, s3)
}

// MaxWalkLanes is the widest group WalkLanes advances in lockstep.
const MaxWalkLanes = 8

// WalkLane is one stream of a lane-interleaved walk batch: its own
// generator, the vertex its walks start from, and the step×walk position
// matrix they fill (row t at Out[t*stride:], one column per walk; row 0
// is not written, as with WalkStrided).
type WalkLane struct {
	Rng   rng.Source
	Start uint32
	Out   []uint32
}

// laneState is one lane's generator words and position while WalkLanes
// runs.
type laneState struct {
	s0, s1, s2, s3 uint64
	v              uint32
}

// WalkLanes runs walks [lo, hi) of every lane (at most MaxWalkLanes), T
// steps each. For each lane the positions written and the draws consumed
// are exactly those of
//
//	for i := lo; i < hi; i++ {
//		wt.WalkStrided(&lane.Rng, lane.Start, T, stride, lane.Out[i:])
//	}
//
// — a lane consumes its own stream walk-major and never reads another's —
// but the lanes advance in lockstep, one step of one walk each in turn.
// A single walk waits out two dependent cache misses a step (its CSR row,
// then the adjacency slot); the lanes' chains are independent, so their
// misses are in flight together.
//
//lint:hotpath lane-interleaved walk kernel, every step of every uncached candidate walk
func (wt *WalkTable) WalkLanes(lanes []WalkLane, lo, hi, T, stride int) {
	if len(lanes) == 1 {
		// Nothing to interleave: keep the generator in registers.
		ln := &lanes[0]
		for i := lo; i < hi; i++ {
			wt.WalkStrided(&ln.Rng, ln.Start, T, stride, ln.Out[i:])
		}
		return
	}
	var st [MaxWalkLanes]laneState
	for l := range lanes {
		ln := &st[l]
		ln.s0, ln.s1, ln.s2, ln.s3 = lanes[l].Rng.State()
	}
	start, adj := wt.start, wt.adj
	prob, alias := wt.prob, wt.alias
	for i := lo; i < hi; i++ {
		for l := range lanes {
			st[l].v = lanes[l].Start
		}
		for t := 1; t <= T; t++ {
			at := t*stride + i
			for l := range lanes {
				ln := &st[l]
				v := ln.v
				if v != NoVertex {
					rlo := start[v]
					d := start[v+1] - rlo
					if d == 0 {
						v = NoVertex
					} else {
						s0, s1, s2, s3, x := xoshiroStep(ln.s0, ln.s1, ln.s2, ln.s3)
						m := uint64(x) * uint64(d)
						if uint32(m) < d {
							for thresh := -d % d; uint32(m) < thresh; { // see drawUniform
								s0, s1, s2, s3, x = xoshiroStep(s0, s1, s2, s3)
								m = uint64(x) * uint64(d)
							}
						}
						ln.s0, ln.s1, ln.s2, ln.s3 = s0, s1, s2, s3
						k := rlo + uint32(m>>32)
						if prob != nil && uint32(m) >= prob[k] {
							k = rlo + alias[k]
						}
						v = adj[k]
					}
					ln.v = v
				}
				lanes[l].Out[at] = v
			}
		}
	}
	for l := range lanes {
		ln := &st[l]
		lanes[l].Rng.SetState(ln.s0, ln.s1, ln.s2, ln.s3)
	}
}
