package graph

import (
	"math/bits"

	"repro/internal/rng"
)

// WalkTable is the random-walk sampling kernel over a graph's in-CSR:
// every step moves a walk to an in-neighbour picked uniformly, the
// column-normalised P of S = c·PᵀSP + D. It aliases the graph's CSR
// arrays and carries no per-slot state.
//
// Draw schema (the determinism contract every walk component pins): each
// live walk consumes ONE bounded-uniform draw per step — Lemire's
// multiply-shift with bounded rejection, byte-compatible with
// rng.Uint32n — whose quotient selects the in-neighbour, so a step is
// bit-for-bit in[r.Uint32n(deg)]. Dead walks and in-degree-zero vertices
// consume nothing.
type WalkTable struct {
	start []uint32 // in-CSR row offsets, aliases the graph's inStart
	adj   []uint32 // in-CSR adjacency, aliases the graph's inAdj
}

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
// walks use. It is O(1): the table aliases the graph's CSR arrays.
func (g *Graph) BuildWalkTable() *WalkTable {
	walkTableSize(g.n)
	return &WalkTable{start: g.inStart, adj: g.inAdj}
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
// A chunk of walks goes through three passes. The gather pass reads each
// live walk's CSR row offset and degree and compacts the live walks' lane
// indices: straight-line code with no data-dependent branches, so dead
// walks cost a few ALU ops instead of a branch misprediction, and the
// independent CSR loads overlap their cache misses. The draw pass runs
// the generator over the live walks only, in walk order, and turns each
// row into the adjacency slot its bounded draw picks. The load pass then
// reads those slots: with no generator work between them, the loads are
// independent and many misses are in flight at once, where a fused draw-
// and-load loop keeps only the few the reorder window spans. Draw order
// is identical to stepping the walks one by one: neither the gather nor
// the load pass consumes randomness, and the compacted indices stay
// ascending.
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
// every position at NoVertex (the load pass rewrites the live ones),
// and returns the live count. Dead walks are handled branch-free:
// sign-extending NoVertex yields an all-ones mask (live vertex ids stay
// below 2^31 — see the walkTableSize guard) that clamps the row index
// to 0 and the degree to 0 with pure ALU ops, and a dead lane writes
// its slots and simply fails to advance the cursor (a CMOV). A
// live/dead mix is the branch predictor's worst case — the pattern
// changes every step — so it must never reach a branch. Kept as a
// standalone looping function (loops don't inline) so the tight body
// gets its own register file instead of spilling inside its caller.
//
//lint:hotpath gather pass of both walk kernels
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

// stepChunk is one gather, draw and load round over at most StepLane
// walks, built from minimal loops so each stays branch-free and
// register-resident.
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
	drawSlots(r, desc)
	loadSlots(desc, idx, pos, wt.adj)
	return live
}

// drawSlots is StepWalks' draw pass over the gathered live walks: one
// bounded draw each, in walk order — identical order and consumption to
// stepping the walks one by one — and each row descriptor is replaced by
// the absolute adjacency slot the draw picks. The rng state lives in
// scalars for the whole pass (a pointer-addressed Source round-trips
// memory on every draw).
//
//lint:hotpath draw pass of StepWalks
func drawSlots(r *rng.Source, desc []uint64) {
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
		desc[j] = uint64(uint32(e>>32) + uint32(m>>32))
	}
	r.SetState(s0, s1, s2, s3)
}

// loadSlots is the load pass of both walk kernels: the live walk idx[j]
// moves to adj[slots[j]]. Nothing in the loop depends on a load, so the
// misses overlap.
//
//lint:hotpath load pass of both walk kernels
func loadSlots(slots, idx []uint64, pos, adj []uint32) {
	idx = idx[:len(slots)]
	for j, e := range slots {
		pos[idx[j]] = adj[uint32(e)]
	}
}

// WalkStrided advances one walk from u for T steps, writing the
// position after step t to out[t*stride] (out[0] is NOT written). Each
// step is in[r.Uint32n(deg)], as in StepWalks; the rng state
// lives in scalar locals for the whole trajectory, so per-step draws
// never round-trip through memory. The strided output lets the
// candidate tally kernel write walk-major columns of its step×walk
// position matrix directly.
func (wt *WalkTable) WalkStrided(r *rng.Source, u uint32, T, stride int, out []uint32) {
	start, adj := wt.start, wt.adj
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
					for thresh := -d % d; uint32(m) < thresh; { // see drawSlots
						s0, s1, s2, s3, x = xoshiroStep(s0, s1, s2, s3)
						m = uint64(x) * uint64(d)
					}
				}
				v = adj[lo+uint32(m>>32)]
			}
		}
		out[t*stride] = v
	}
	r.SetState(s0, s1, s2, s3)
}

// MaxWalkLanes is the widest group WalkLanes advances in lockstep. The
// width is the caller's: a wider group keeps more misses in flight but
// walks more lanes' generator state and output rows through the cache.
const MaxWalkLanes = 32

// lockstepLanes is the widest group WalkLanes steps in one fused loop.
// That many lanes' steps fit the reorder window, so their misses already
// overlap; splitting the step into passes only adds loads and stores
// (BenchmarkBuildIndex/social, 8 lanes, ran 15–25 % slower split).
const lockstepLanes = 8

// WalkLane is one stream of a lane-interleaved walk batch: its own
// generator, the vertex its walks start from, and the step×walk position
// matrix they fill (row t at Out[t*stride:], one column per walk; row 0
// is not written, as with WalkStrided).
type WalkLane struct {
	Rng   rng.Source
	Start uint32
	Out   []uint32
}

// laneRng is one lane's generator words while stepPhased runs.
type laneRng struct {
	s0, s1, s2, s3 uint64
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
// misses are in flight together. Up to lockstepLanes lanes step in one
// fused loop (stepLockstep); a wider group steps pass by pass
// (stepPhased), which keeps all its lanes' misses in flight where a
// fused loop of that length would outrun the reorder window.
//
//lint:hotpath lane-interleaved walk kernel, every step of every uncached candidate walk
func (wt *WalkTable) WalkLanes(lanes []WalkLane, lo, hi, T, stride int) {
	switch {
	case len(lanes) == 1:
		// Nothing to interleave: keep the generator in registers.
		ln := &lanes[0]
		for i := lo; i < hi; i++ {
			wt.WalkStrided(&ln.Rng, ln.Start, T, stride, ln.Out[i:])
		}
	case len(lanes) <= lockstepLanes:
		wt.stepLockstep(lanes, lo, hi, T, stride)
	default:
		wt.stepPhased(lanes, lo, hi, T, stride)
	}
}

// laneState is one lane's generator words and position while
// stepLockstep runs.
type laneState struct {
	s0, s1, s2, s3 uint64
	v              uint32
}

// stepLockstep is WalkLanes for a narrow group: one step of each lane in
// turn, row offset, draw and adjacency load in one loop body.
//
//lint:hotpath WalkLanes for up to lockstepLanes lanes, every index walk
func (wt *WalkTable) stepLockstep(lanes []WalkLane, lo, hi, T, stride int) {
	var st [lockstepLanes]laneState
	for l := range lanes {
		ln := &st[l]
		ln.s0, ln.s1, ln.s2, ln.s3 = lanes[l].Rng.State()
	}
	start, adj := wt.start, wt.adj
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
							for thresh := -d % d; uint32(m) < thresh; { // see drawSlots
								s0, s1, s2, s3, x = xoshiroStep(s0, s1, s2, s3)
								m = uint64(x) * uint64(d)
							}
						}
						ln.s0, ln.s1, ln.s2, ln.s3 = s0, s1, s2, s3
						v = adj[rlo+uint32(m>>32)]
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

// stepPhased is WalkLanes for a wide group: each step runs StepWalks'
// three passes across the lanes — gather every lane's CSR row, draw every
// live lane's slot from its own generator, load every slot — so the
// lanes' misses of a kind are in flight together. Once every lane's
// current walk is dead, the remaining rows of that walk are NoVertex and
// no pass runs, so no draw is consumed.
//
//lint:hotpath WalkLanes for more than lockstepLanes lanes, every uncached candidate walk
func (wt *WalkTable) stepPhased(lanes []WalkLane, lo, hi, T, stride int) {
	var (
		st        [MaxWalkLanes]laneRng
		pos       [MaxWalkLanes]uint32
		desc, idx [MaxWalkLanes]uint64
	)
	for l := range lanes {
		ln := &st[l]
		ln.s0, ln.s1, ln.s2, ln.s3 = lanes[l].Rng.State()
	}
	k := len(lanes)
	start, adj := wt.start, wt.adj
	for i := lo; i < hi; i++ {
		for l := range lanes {
			pos[l] = lanes[l].Start
		}
		t := 1
		for ; t <= T; t++ {
			live := gatherLive(start, pos[:k], desc[:k], idx[:k])
			if live == 0 {
				break
			}
			drawLaneSlots(&st, desc[:live], idx[:live])
			loadSlots(desc[:live], idx[:live], pos[:k], adj)
			at := t*stride + i
			for l := range lanes {
				lanes[l].Out[at] = pos[l]
			}
		}
		for ; t <= T; t++ {
			at := t*stride + i
			for l := range lanes {
				lanes[l].Out[at] = NoVertex
			}
		}
	}
	for l := range lanes {
		ln := &st[l]
		lanes[l].Rng.SetState(ln.s0, ln.s1, ln.s2, ln.s3)
	}
}

// drawLaneSlots is stepPhased's draw pass: live lane idx[j] draws its
// next step from its own generator, and its row descriptor desc[j] is
// replaced by the absolute adjacency slot the draw picks, as in
// drawSlots. (Lane indices are below MaxWalkLanes, a power of two; the
// mask only lets the compiler drop the bounds check.)
//
//lint:hotpath draw pass of stepPhased
func drawLaneSlots(st *[MaxWalkLanes]laneRng, desc, idx []uint64) {
	idx = idx[:len(desc)]
	for j, e := range desc {
		ln := &st[idx[j]&(MaxWalkLanes-1)]
		d := uint32(e)
		s0, s1, s2, s3, x := xoshiroStep(ln.s0, ln.s1, ln.s2, ln.s3)
		m := uint64(x) * uint64(d)
		if uint32(m) < d {
			for thresh := -d % d; uint32(m) < thresh; { // see drawSlots
				s0, s1, s2, s3, x = xoshiroStep(s0, s1, s2, s3)
				m = uint64(x) * uint64(d)
			}
		}
		ln.s0, ln.s1, ln.s2, ln.s3 = s0, s1, s2, s3
		desc[j] = uint64(uint32(e>>32) + uint32(m>>32))
	}
}
