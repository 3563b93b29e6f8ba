package core

import "slices"

// This file is the candidate-scoring tally kernel shared by the cached
// and uncached paths. A candidate v is scored by simulating R walks from
// v (seeded by candSeed, so the stream is query-independent), tallying
// the positions per step into a compact sorted view, and taking the dot
// product against the query-side distribution. The same code runs with
// and without the cache — the cache only decides whether the view comes
// from scratch buffers or a stored tallyEntry — which is what makes
// cache-on and cache-off results byte-identical.
//
// The simulation is walk-major (each walk advanced through all T steps
// before the next starts), not step-synchronous like stepWalks. Dead
// walks consume no randomness, so the positions of walks 0..RRough-1 are
// the same whether or not walks RRough..R-1 follow — the rough adaptive
// estimate is literally a prefix restriction of the full tally, and the
// cached rcnt counts reproduce it exactly.

// simulateCandWalks advances walks [lo, hi) of candidate v's stream,
// writing positions into s.tpos with row stride `stride` (row t holds
// step t's positions; step 0 is implicit — every walk starts at v).
// s.rng must already be seeded with candSeed(v) and positioned at walk
// lo (walks are consumed in order, so a caller that simulated [0, lo)
// first continues the same stream).
//
//lint:hotpath per-candidate walk simulation, runs R times per scored candidate
func (e *Snapshot) simulateCandWalks(s *scratch, v uint32, lo, hi, stride int) {
	T := e.p.T
	tp := s.tposBuf(T, stride)
	wt := e.wt
	for i := lo; i < hi; i++ {
		// One strided trajectory per walk: row t of tp gets step t's
		// position at column i. Walk-major draw order is part of the
		// determinism contract (the rough estimate replays a prefix of
		// the same stream), so walks batch internally — scalar rng
		// state across the whole trajectory — but never across walks.
		wt.WalkStrided(&s.rng, v, T-1, stride, tp[i:])
	}
}

// buildRoughTally tabulates walks [0, Rr) of the current tpos matrix
// into the scratch tally view (sorted supports, counts in tallyRcnt) and
// returns rsteps, the number of leading steps with nonempty support.
// Used only on the cache-disabled rough pass; tallyCnt entries are
// written but meaningless.
//
//lint:hotpath rough-pass tally tabulation, runs once per candidate
func (e *Snapshot) buildRoughTally(s *scratch, v uint32, Rr, stride int) int {
	T := e.p.T
	s.tallyReset(T)
	s.tallyV = append(s.tallyV, v)
	s.tallyCnt = append(s.tallyCnt, 0)
	s.tallyRcnt = append(s.tallyRcnt, uint16(Rr))
	s.tallyOff[1] = 1
	for t := 1; t < T; t++ {
		s.beginTally()
		row := s.tpos[t*stride:]
		for i := 0; i < Rr; i++ {
			if w := row[i]; w != Dead {
				s.tallyCount(w)
			}
		}
		if len(s.touched) == 0 {
			for tt := t; tt < T; tt++ {
				s.tallyOff[tt+1] = s.tallyOff[tt]
			}
			return t
		}
		s.orderTouched()
		for _, w := range s.touched {
			s.tallyV = append(s.tallyV, w)
			s.tallyCnt = append(s.tallyCnt, 0)
			s.tallyRcnt = append(s.tallyRcnt, uint16(s.cnt[w]))
		}
		s.tallyOff[t+1] = int32(len(s.tallyV))
	}
	return T
}

// buildFullTally tabulates all R walks into the scratch tally view: per
// step, the sorted support with full counts (tallyCnt) and rough-prefix
// counts over walks [0, Rr) (tallyRcnt). It returns rsteps — the first
// step at which the rough prefix has no live walks, or T. The rough
// counts here must match buildRoughTally on the same walk prefix, which
// they do because both read the identical tpos columns.
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

// newTallyEntry clones the scratch tally view into an immutable cache
// entry.
func newTallyEntry(v uint32, rsteps int, s *scratch) *tallyEntry {
	ent := &tallyEntry{
		v:      v,
		rsteps: int32(rsteps),
		off:    slices.Clone(s.tallyOff),
		verts:  slices.Clone(s.tallyV),
		cnt:    slices.Clone(s.tallyCnt),
		rcnt:   slices.Clone(s.tallyRcnt),
	}
	ent.size = entrySize(len(ent.off)-1, len(ent.verts))
	return ent
}

// dotTally evaluates the truncated series from a tally view against the
// query-side distribution:
//
//	ŝ = Σ_{t<maxStep} cᵗ Σ_w p̂_u,t(w)·D_ww·(counts[w]/R)
//
// The tally side defines the summation order — its supports are ascending
// per step and zero counts are skipped — and each term finds its
// query-side mass through wd's bucket directory (walkDist.lookup), so for
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
		for j := lo; j < hi; j++ {
			c := counts[j]
			if c == 0 {
				continue
			}
			w := verts[j]
			if i := wd.lookup(t, w); i >= 0 {
				sigma += ct * e.p.dval(w) * wd.mass(t, i) * float64(c) * invR
			}
		}
	}
	return sigma
}
