package core

import (
	"math"
	"slices"
)

// This file is the candidate-scoring tally kernel of the cached path. A
// candidate v is scored by simulating R walks from v (seeded by candSeed,
// so the stream is query-independent), tallying the positions per step
// into a compact sorted view, and taking the dot product against the
// query-side distribution. The sorted view is what a tallyEntry stores;
// without the cache nobody needs it, and lanes.go evaluates the same sum
// over the same walk stream straight from the positions — term for term,
// which is what makes cache-on and cache-off results byte-identical.
//
// The simulation is walk-major (each walk advanced through all T steps
// before the next starts), not step-synchronous like StepWalks. Dead
// walks consume no randomness, so the positions of walks 0..RRough-1 are
// the same whether or not walks RRough..R-1 follow — the rough adaptive
// estimate is literally a prefix restriction of the full tally, and the
// cached rcnt counts reproduce it exactly.

// simulateCandWalks runs all R walks of candidate v's stream, writing
// positions into s.tpos (row t holds step t's positions, one column per
// walk; step 0 is implicit — every walk starts at v). s.rng must be
// seeded with candSeed(v).
//
//lint:hotpath per-candidate walk simulation, runs R times per cache miss
func (e *Snapshot) simulateCandWalks(s *scratch, v uint32, R int) {
	T := e.p.T
	tp := s.tposBuf(T, R)
	wt := e.wt
	for i := 0; i < R; i++ {
		// One strided trajectory per walk: row t of tp gets step t's
		// position at column i. Walk-major draw order is part of the
		// determinism contract (the rough estimate replays a prefix of
		// the same stream), so walks batch internally — scalar rng
		// state across the whole trajectory — but never across walks.
		wt.WalkStrided(&s.rng, v, T-1, R, tp[i:])
	}
}

// buildFullTally tabulates all R walks into the scratch tally view: per
// step, the sorted support with full counts (tallyCnt) and rough-prefix
// counts over walks [0, Rr) (tallyRcnt). It returns rsteps — the first
// step at which the rough prefix has no live walks, or T.
//
//lint:hotpath full tally tabulation, runs once per surviving candidate
func (e *Snapshot) buildFullTally(s *scratch, v uint32, R, Rr, stride int) int {
	T := e.p.T
	s.tallyReset(T)
	s.tallyV = append(s.tallyV, v)
	s.tallyCnt = append(s.tallyCnt, uint16(R))
	s.tallyRcnt = append(s.tallyRcnt, uint16(Rr))
	s.tallyOff[1] = 1
	rsteps := T
	for t := 1; t < T; t++ {
		s.beginTally()
		row := s.tpos[t*stride:]
		for i := 0; i < R; i++ {
			if w := row[i]; w != Dead {
				s.tallyCount(w)
			}
		}
		if len(s.touched) == 0 {
			for tt := t; tt < T; tt++ {
				s.tallyOff[tt+1] = s.tallyOff[tt]
			}
			if rsteps == T {
				rsteps = t
			}
			return rsteps
		}
		s.orderTouched()
		base := len(s.tallyV)
		for _, w := range s.touched {
			s.tallyV = append(s.tallyV, w)
			s.tallyCnt = append(s.tallyCnt, uint16(s.cnt[w]))
			s.tallyRcnt = append(s.tallyRcnt, 0)
		}
		s.tallyOff[t+1] = int32(len(s.tallyV))
		// Re-tally the rough prefix to fill rcnt for this step.
		s.beginTally()
		alive := false
		for i := 0; i < Rr; i++ {
			if w := row[i]; w != Dead {
				s.tallyCount(w)
				alive = true
			}
		}
		if alive {
			for j := base; j < len(s.tallyV); j++ {
				if w := s.tallyV[j]; s.mark[w] == s.epoch {
					s.tallyRcnt[j] = uint16(s.cnt[w])
				}
			}
		} else if rsteps == T {
			rsteps = t
		}
	}
	return rsteps
}

// The cross-query walk-tally cache (Snapshot.cache, a clockCache keyed by
// candidate vertex). Because candidate walks are seeded per vertex
// (candSeed), a candidate's step-t position tally at R = RScore walks is
// a pure function of (snapshot, v): the cache stores that tally once and
// every later query scoring v replaces its O(T·R) walk simulation with an
// O(T·distinct) dot product against the query-side distribution. The
// rough adaptive pass is served from the same entry — the walk-major
// simulation order guarantees the first RRough walks of the full stream
// are exactly the walks a rough-only simulation would have produced, so
// per-step counts restricted to that prefix (rcnt) reproduce the rough
// estimate bit for bit.

// tally is one cached candidate tally: per-step sorted supports with
// full-stream and rough-prefix counts, in the same flat layout the
// scratch tally builders produce. Immutable after construction.
type tally struct {
	// rsteps is the number of leading steps with a nonempty rough-prefix
	// support; the rough dot product stops there.
	rsteps int32
	// off[t]..off[t+1] delimit step t's slice of verts/cnt/rcnt.
	off   []int32
	verts []uint32
	// cnt counts all RScore walks at each support vertex; rcnt counts
	// only the first RRough walks (0 when the rough prefix never visits
	// it). uint16 suffices: the cache is disabled when RScore > 65535.
	cnt  []uint16
	rcnt []uint16
}

type tallyEntry = cacheEntry[tally]

// maxTallyCount is the largest walk count a uint16 tally can represent.
const maxTallyCount = math.MaxUint16

// tallyEntryOverhead approximates the fixed per-entry footprint: the
// struct itself plus slice headers and ring bookkeeping.
const tallyEntryOverhead = 160

// newTallyEntry clones the scratch tally view into an immutable cache
// entry, charged 8 bytes a support vertex and 4 a step offset.
func newTallyEntry(v uint32, rsteps int, s *scratch) *tallyEntry {
	return &tallyEntry{
		key:  v,
		size: tallyEntryOverhead + 4*int64(len(s.tallyOff)) + 8*int64(len(s.tallyV)),
		val: tally{
			rsteps: int32(rsteps),
			off:    slices.Clone(s.tallyOff),
			verts:  slices.Clone(s.tallyV),
			cnt:    slices.Clone(s.tallyCnt),
			rcnt:   slices.Clone(s.tallyRcnt),
		},
	}
}

// dotTally evaluates the truncated series from a tally view against the
// query-side distribution:
//
//	ŝ = Σ_{t<maxStep} cᵗ Σ_w p̂_u,t(w)·D_ww·(counts[w]/R)
//
// The tally side defines the summation order — its supports are ascending
// per step and zero counts are skipped — and each term finds its
// query-side mass through wd's directory (walkDist.lookup), so for
// any view representing the same walk multiset (scratch rough view,
// scratch full view, or a cached entry truncated to its rough prefix)
// the sequence of floating-point operations — and hence the result — is
// identical. invR is 1/R for the counts' walk population; maxStep is
// rsteps for rough estimates and T for full ones.
//
//lint:hotpath scoring dot product, runs on every candidate (cached or not)
func (e *Snapshot) dotTally(wd *walkDist, off []int32, verts []uint32, counts []uint16, invR float64, maxStep int) float64 {
	sigma := 0.0
	ct := 1.0
	for t := 0; t < maxStep; t++ {
		if t > 0 {
			ct *= e.p.C
		}
		lo, hi := off[t], off[t+1]
		if lo == hi || wd.support(t) == 0 {
			break
		}
		// The directory kind is picked once a step, so that the term loop
		// inlines the one index function it calls (dotPositions has what a
		// single loop costs).
		if wd.dense(t) {
			bits32, rank := wd.ranks(t)
			for j := lo; j < hi; j++ {
				if c := counts[j]; c != 0 {
					w := verts[j]
					if i := rankIndex(bits32, rank, w); i >= 0 {
						sigma += ct * e.p.dval(w) * wd.mass(t, i) * float64(c) * invR
					}
				}
			}
		} else {
			boff, bverts, shift := wd.buckets(t)
			for j := lo; j < hi; j++ {
				if c := counts[j]; c != 0 {
					w := verts[j]
					if i := bucketIndex(boff, bverts, shift, w); i >= 0 {
						sigma += ct * e.p.dval(w) * wd.mass(t, i) * float64(c) * invR
					}
				}
			}
		}
	}
	return sigma
}
