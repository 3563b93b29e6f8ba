package core

import (
	"math/bits"

	"repro/internal/graph"
)

// This file scores one block of bound-ordered candidates. scoreBlock is
// the entry every scan mode calls; scoreLanes is the one kernel for
// candidates that need walks.
//
// A score is Σ_t cᵗ Σ_w p̂_u,t(w)·D_ww·count(w)/R, and only positions
// inside the query-side support contribute. So scoreLanes (1) advances up
// to graph.MaxWalkLanes candidates' walks in lockstep (candWalks) — each
// walk on its own stream, so lane neighbours cannot change a position —
// and only up to the query's horizon, the last step a score reads; and
// (2) looks every position up in the query side's slot index directly,
// counting hits per support index (dotPositions). The rough pass runs for
// the whole section first; survivors are repacked into full lanes next to
// their rough columns and walk the rest of their RScore walks.

// lanePosBytes bounds each of a scratch's two lane position buffers (the
// rough columns of a section, and the full matrices of one lane group).
// A matrix is T·R positions; when fewer than two fit, scoring falls to
// one candidate at a time, which is all a huge R leaves worth overlapping.
const lanePosBytes = 512 << 10

// laneFit returns how many T×cols position matrices fit the lane budget,
// clamped to [1, most].
func laneFit(T, cols, most int) int {
	return max(1, min(most, lanePosBytes/(4*T*cols)))
}

// scoreBlock scores one block of a scan at a fixed pruning floor against
// the query side x indexes: out[j] becomes the outcome of block[j] —
// vertex, bound (clamped, see ShardCand), state and the estimates the
// state says are valid. The caller builds x once for its whole scan
// (search, shardScan). A linear plan's bound is its candidate's score, so
// its block is scored already: every outcome is ShardScoredNoRough at
// Score = ub, and x is not read. A Monte-Carlo block goes whole to the
// lane kernel.
func (e *Snapshot) scoreBlock(s *scratch, block []boundedCand, out []ShardCand, x *slotIndex, floor float64) {
	if e.p.Strategy == CandidatesLinear {
		for j, b := range block {
			out[j] = ShardCand{V: b.v, UB: clampUB(b.ub), State: ShardScoredNoRough, Score: b.ub}
		}
		return
	}
	for j, b := range block {
		out[j] = ShardCand{V: b.v, UB: clampUB(b.ub)}
	}
	e.scoreLanes(s, x, out, floor)
}

// scoreLanes completes every out[j] with the sampled estimate of out[j].V:
// the rough RRough-walk estimate, the roughPruned verdict on it, and for
// survivors the full RScore-walk estimate. The walks stop after h − 1
// steps, h the query side's number of nonempty steps: dotPositions stops
// at step h, and the rows past it are never read. At h = 1 nothing walks.
//
//lint:hotpath block scoring kernel: all candidate walks and their scoring
func (e *Snapshot) scoreLanes(s *scratch, x *slotIndex, out []ShardCand, floor float64) {
	T, R, Rr := e.p.T, e.p.RScore, e.p.RRough
	invR, invRr := 1/float64(R), 1/float64(Rr)
	steps := max(x.wd.steps(), 1) - 1
	group := laneFit(T, R, graph.MaxWalkLanes)
	section := laneFit(T, Rr, scoreBlock)
	if s.fullLanes == nil {
		s.fullLanes = newWalkLanes(group, T*R)
		s.roughLanes = newWalkLanes(section, T*Rr)
	}
	full, rough := s.fullLanes, s.roughLanes
	// from is the first refine walk: the one after the rough walks, or
	// walk 0 when there is no rough pass.
	from := Rr
	if e.p.DisableAdaptive {
		from = 0
	}
	// live lists the section's candidates still to refine, by index into
	// sec, in the order of their lanes.
	var live [scoreBlock]int
	for len(out) > 0 {
		sec := out[:min(section, len(out))]
		out = out[len(sec):]
		for i := range sec {
			rough[i].Start = sec[i].V
			sec[i].State = ShardScoredNoRough
			live[i] = i
		}
		alive := len(sec)
		if from > 0 {
			// Rough pass over the whole section: walks [0, Rr) of every
			// candidate, written into its own saved columns.
			for lo := 0; lo < len(sec); lo += group {
				e.candWalks(rough[lo:min(lo+group, len(sec))], 0, Rr, steps, Rr)
			}
			// Survivors move to the front with their columns.
			alive = 0
			for i := range sec {
				est := e.dotPositions(s, x, rough[i].Start, rough[i].Out, Rr, Rr, invRr)
				sec[i].Rough = est
				if roughPruned(est, floor) {
					sec[i].State = ShardRoughPruned
					continue
				}
				sec[i].State = ShardScored
				rough[alive], rough[i] = rough[i], rough[alive]
				live[alive] = i
				alive++
			}
		}
		// Refine: walks [from, R) of each survivor next to its rough
		// columns, a full lane group at a time.
		for lo := 0; lo < alive; lo += group {
			g := min(group, alive-lo)
			for l := 0; l < g; l++ {
				src := &rough[lo+l]
				full[l].Start = src.Start
				for t := 1; t <= steps; t++ {
					copy(full[l].Out[t*R:t*R+from], src.Out[t*Rr:])
				}
			}
			e.candWalks(full[:g], from, R, steps, R)
			for l := 0; l < g; l++ {
				sec[live[lo+l]].Score = e.dotPositions(s, x, full[l].Start, full[l].Out, R, R, invR)
			}
		}
	}
}

// candWalks runs walks [lo, hi) of every lane's candidate (at most
// graph.MaxWalkLanes lanes), steps steps each, into the lanes' position
// matrices (row t at Out[t*stride:], one column per walk; row 0 is not
// written). Walk i of candidate v draws from a stream of its own, seeded
// walkSeed(candSeed(v), i), so its first s steps are the same however
// many it runs: the lane kernel stops at the query's horizon. Each lane is
// re-seeded before each walk, and the walks of a group step in lockstep
// (graph.WalkTable.WalkLanes).
//
//lint:hotpath candidate walks, every walk of every candidate scored by walking
func (e *Snapshot) candWalks(lanes []graph.WalkLane, lo, hi, steps, stride int) {
	if steps == 0 {
		return
	}
	var cand [graph.MaxWalkLanes]uint64
	for l := range lanes {
		cand[l] = e.candSeed(lanes[l].Start)
	}
	for i := lo; i < hi; i++ {
		for l := range lanes {
			lanes[l].Rng.Seed(walkSeed(cand[l], i))
		}
		e.wt.WalkLanes(lanes, i, i+1, steps, stride)
	}
}

// dotPositions evaluates the truncated series of candidate v straight
// from its walk positions against the distribution x indexes: pos holds
// one row per step (row t at pos[t*stride:], cols walks, Dead after a
// walk's death; row 0 is implicit — every walk starts at v), and invR is
// 1/cols.
//
// Every position is probed in x, hits are counted per support index, and
// the indices are swept in ascending order — which is ascending vertex
// order, because a step's support is stored ascending — so each step adds
// ct·D_ww·mass·count·invR over the support vertices the candidate's walks
// reached, in vertex order; a position outside the support adds nothing.
// The sum stops at the first step where the query side or the candidate
// side has nothing left.
//
//lint:hotpath position-first scoring dot product, twice per surviving candidate
func (e *Snapshot) dotPositions(s *scratch, x *slotIndex, v uint32, pos []uint32, stride, cols int, invR float64) float64 {
	wd, uid := x.wd, x.uid
	if wd.support(0) == 0 {
		return 0
	}
	sigma := 0.0
	ct := 1.0
	if i := x.lookup(0, v); i >= 0 {
		sigma += ct * e.p.dval(v) * wd.mass(0, i) * float64(cols) * invR
	}
	for t := 1; t < e.p.T; t++ {
		ct *= e.p.C
		verts := wd.verts[t]
		if len(verts) == 0 {
			break
		}
		cnt, set := s.hitBufs(len(verts))
		loW, hiW := len(set), -1
		row, slot := pos[t*stride:t*stride+cols], x.row(t)
		live := false
		for _, w := range row {
			if w == Dead {
				continue
			}
			live = true
			if i := int(slot[uid[w]]) - 1; i >= 0 {
				loW, hiW = countHit(cnt, set, i, loW, hiW)
			}
		}
		if !live {
			break
		}
		for wi := loW; wi <= hiW; wi++ {
			for b := set[wi]; b != 0; b &= b - 1 {
				i := wi<<6 + bits.TrailingZeros64(b)
				c := cnt[i]
				cnt[i] = 0
				sigma += ct * e.p.dval(verts[i]) * wd.mass(t, i) * float64(c) * invR
			}
			set[wi] = 0
		}
	}
	return sigma
}

// countHit counts one more position at support index i in dotPositions'
// per-step tally: cnt by index, set marking the indices with a nonzero
// count, [loW, hiW] the span of set's words in use, returned updated.
func countHit(cnt []uint32, set []uint64, i, loW, hiW int) (int, int) {
	if cnt[i] == 0 {
		set[i>>6] |= 1 << (i & 63)
		loW, hiW = min(loW, i>>6), max(hiW, i>>6)
	}
	cnt[i]++
	return loW, hiW
}
