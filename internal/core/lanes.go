package core

import (
	"math/bits"
	"sync"

	"repro/internal/graph"
)

// This file scores one block of bound-ordered candidates. scoreBlock is
// the dispatcher every scan mode calls; scoreLanes is the kernel for
// candidates that need walks and have no tally cache to publish them to.
//
// Without the cache nobody needs the sorted per-step tally the cached
// path builds (tally.go): a score is Σ_t cᵗ Σ_w p̂_u,t(w)·D_ww·count(w)/R,
// and only positions inside the query-side support contribute. So
// scoreLanes (1) advances up to graph.MaxWalkLanes candidates' walk
// streams in lockstep — each candidate keeps its own candSeed stream and
// consumes it walk-major, exactly as simulateCandWalks does, so every
// position is unchanged while the lanes' cache misses overlap — and (2)
// looks every position up in the query-side directory directly, counting
// hits per support index (dotPositions). The rough pass runs for the
// whole section first; survivors are repacked into full lanes and
// continue from their saved generator state and rough columns.

// shareGroup is how many bound-ordered candidates a worker of a parallel
// block takes at a time (scoreBlock). It is not the lane width: a share's
// candidates still go through scoreLanes together, graph.MaxWalkLanes
// lanes at a time. Dealt in runs of 32, a 64-candidate block would give
// two workers one contiguous half each, the split round robin avoids.
const shareGroup = 8

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

// scoreBlock scores one block of a scan at a fixed pruning floor: out[j]
// becomes the outcome of block[j] — vertex, bound (clamped, see ShardCand),
// state and the estimates the state says are valid — and the tally cache's
// part in it is added to stats. With workers > 1 the block is dealt out in
// runs of shareGroup candidates, round robin — neighbours in bound order
// cost alike (the head of a block is mostly refined, its tail mostly
// rough-pruned), so contiguous halves would leave one worker waiting for
// the other. The caller scores its share on qs while pooled scratches
// serve the others. Each candidate's walks come from its own vertex-seeded
// stream (candSeed), so which goroutine scores it — and next to which lane
// neighbours — cannot change its score.
func (e *Snapshot) scoreBlock(qs *scratch, block []boundedCand, out []ShardCand, wd *walkDist, floor float64, workers int, stats *QueryStats) {
	group := laneFit(e.p.T, e.p.RScore, shareGroup)
	shares := min(workers, (len(block)+group-1)/group)
	if shares <= 1 || len(block) < minParallelScore {
		e.scoreShare(qs, block, out, wd, floor, 0, len(block), len(block), stats)
		return
	}
	// Each share counts its cache traffic on its own, in a row of the
	// caller's scratch; the sums do not depend on which share met which
	// candidate.
	if cap(qs.shareStats) < shares {
		qs.shareStats = make([]QueryStats, shares)
	}
	cache := qs.shareStats[:shares]
	clear(cache)
	var wg sync.WaitGroup
	for w := 1; w < shares; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.getScratch()
			defer e.putScratch(s)
			e.scoreShare(s, block, out, wd, floor, w*group, shares*group, group, &cache[w])
		}()
	}
	e.scoreShare(qs, block, out, wd, floor, 0, shares*group, group, &cache[0])
	wg.Wait()
	for _, c := range cache {
		stats.AddCache(c)
	}
}

// scoreShare scores one worker's share of a block — the runs of group
// candidates starting at first, first+stride, … — on one scratch:
// candidates the exact propagation or the tally cache can answer are
// scored one by one (scoreCandidate), the rest are collected and go
// through the lane kernel together.
func (e *Snapshot) scoreShare(s *scratch, block []boundedCand, out []ShardCand, wd *walkDist, floor float64, first, stride, group int, stats *QueryStats) {
	pend := s.pend[:0]
	for lo := first; lo < len(block); lo += stride {
		for j := lo; j < min(lo+group, len(block)); j++ {
			out[j] = ShardCand{V: block[j].v, UB: clampUB(block[j].ub)}
			if !e.scoreCandidate(s, wd, &out[j], floor, stats) {
				pend = append(pend, int32(j))
			}
		}
	}
	s.pend = pend
	if len(pend) > 0 {
		e.scoreLanes(s, wd, out, pend, floor)
	}
}

// scoreLanes completes out[j] for every j in pend with the sampled,
// uncached estimate of out[j].V: the rough RRough-walk estimate, the
// roughPruned verdict on it, and for survivors the full RScore-walk
// estimate — the values the cached path computes from the same streams
// (see dotPositions for why no bit differs).
//
//lint:hotpath uncached block scoring kernel: all candidate walks and their scoring
func (e *Snapshot) scoreLanes(s *scratch, wd *walkDist, out []ShardCand, pend []int32, floor float64) {
	T, R, Rr := e.p.T, e.p.RScore, e.p.RRough
	invR, invRr := 1/float64(R), 1/float64(Rr)
	group := laneFit(T, R, graph.MaxWalkLanes)
	section := laneFit(T, Rr, scoreBlock)
	if s.fullLanes == nil {
		s.fullLanes = newWalkLanes(group, T*R)
		s.roughLanes = newWalkLanes(section, T*Rr)
	}
	full, rough := s.fullLanes, s.roughLanes
	// from is where the refine walks pick a stream up: after the rough
	// prefix, or at its start when there is no rough pass.
	from := Rr
	if e.p.DisableAdaptive {
		from = 0
	}
	for len(pend) > 0 {
		sec := pend[:min(section, len(pend))]
		pend = pend[len(sec):]
		for i, j := range sec {
			v := out[j].V
			rough[i].Start = v
			rough[i].Rng.Seed(e.candSeed(v))
			out[j].State = ShardScoredNoRough
		}
		alive := len(sec)
		if from > 0 {
			// Rough pass over the whole section: walks [0, Rr) of every
			// stream, written into the candidate's own saved columns.
			for lo := 0; lo < len(sec); lo += group {
				e.wt.WalkLanes(rough[lo:min(lo+group, len(sec))], 0, Rr, T-1, Rr)
			}
			// Survivors move to the front, keeping their generator state
			// (now positioned at walk Rr) and their columns.
			alive = 0
			for i, j := range sec {
				est := e.dotPositions(s, wd, rough[i].Start, rough[i].Out, Rr, Rr, invRr)
				out[j].Rough = est
				if roughPruned(est, floor) {
					out[j].State = ShardRoughPruned
					continue
				}
				out[j].State = ShardScored
				rough[alive], rough[i] = rough[i], rough[alive]
				sec[alive] = j
				alive++
			}
		}
		// Refine: walks [from, R) continue each survivor's stream next to
		// its rough columns, a full lane group at a time.
		for lo := 0; lo < alive; lo += group {
			g := min(group, alive-lo)
			for l := 0; l < g; l++ {
				src := &rough[lo+l]
				full[l].Start, full[l].Rng = src.Start, src.Rng
				for t := 1; t < T; t++ {
					copy(full[l].Out[t*R:t*R+from], src.Out[t*Rr:])
				}
			}
			e.wt.WalkLanes(full[:g], from, R, T-1, R)
			for l := 0; l < g; l++ {
				out[sec[lo+l]].Score = e.dotPositions(s, wd, full[l].Start, full[l].Out, R, R, invR)
			}
		}
	}
}

// dotPositions evaluates the truncated series of candidate v straight
// from its walk positions: pos holds one row per step (row t at
// pos[t*stride:], cols walks, Dead after a walk's death; row 0 is
// implicit — every walk starts at v), and invR is 1/cols.
//
// It returns bit for bit what dotTally returns for the sorted tally of
// the same positions. dotTally walks each step's distinct positions in
// ascending vertex order and adds ct·D_ww·mass·count·invR for those the
// query-side support contains, skipping the rest. Here every position is
// looked up, hits are counted per support index, and the indices are
// swept in ascending order — which is ascending vertex order, because a
// step's support is stored ascending — so the same terms, with the same
// counts, are added in the same order by the same expression; a position
// outside the support adds nothing in either. Both stop at the first
// step where the query side or the candidate side has nothing left.
// Counts are uint32, so RScore is not bounded by the cache's uint16.
//
//lint:hotpath position-first scoring dot product, twice per surviving uncached candidate
func (e *Snapshot) dotPositions(s *scratch, wd *walkDist, v uint32, pos []uint32, stride, cols int, invR float64) float64 {
	if wd.support(0) == 0 {
		return 0
	}
	sigma := 0.0
	ct := 1.0
	if i := wd.lookup(0, v); i >= 0 {
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
		row := pos[t*stride : t*stride+cols]
		live := false
		// The directory kind is picked here, once a step, so that each
		// position loop inlines the one index function it calls. One loop
		// through wd.lookup, which holds both kinds and is past the inlining
		// budget, costs 22 % here (10.6 to 12.9 µs a candidate on the 100 000
		// vertex social graph) and 64 % in dotTally; one loop generic over
		// the index function 4 % and 42 %.
		if wd.dense(t) {
			bits32, rank := wd.ranks(t)
			for _, w := range row {
				if w == Dead {
					continue
				}
				live = true
				if i := rankIndex(bits32, rank, w); i >= 0 {
					loW, hiW = countHit(cnt, set, i, loW, hiW)
				}
			}
		} else {
			off, bverts, shift := wd.buckets(t)
			for _, w := range row {
				if w == Dead {
					continue
				}
				live = true
				if i := bucketIndex(off, bverts, shift, w); i >= 0 {
					loW, hiW = countHit(cnt, set, i, loW, hiW)
				}
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
