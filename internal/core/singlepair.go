package core

import (
	"context"

	"repro/internal/rng"
)

// SinglePair estimates the truncated SimRank score s⁽ᵀ⁾(u, v) with
// Algorithm 1 of the paper, using Params.RScore walk pairs. The estimate
// is unbiased for each series term and concentrates per Proposition 3.
func (e *Snapshot) SinglePair(u, v uint32) float64 {
	return e.SinglePairR(u, v, e.p.RScore)
}

// SinglePairCtx is SinglePair with cancellation. A single-pair estimate
// is one bounded O(T·R) unit of work, so the context is checked once on
// entry; a cancelled context returns ctx.Err() without touching the
// scratch pool.
func (e *Snapshot) SinglePairCtx(ctx context.Context, u, v uint32) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return e.SinglePair(u, v), nil
}

// SinglePairR is SinglePair with an explicit sample count R, used by the
// adaptive sampling of the query phase and by accuracy experiments.
func (e *Snapshot) SinglePairR(u, v uint32, R int) float64 {
	s := e.getScratch()
	defer e.putScratch(s)
	s.rng.Seed(e.pairSeed(u, v))
	return e.singlePairR(u, v, R, &s.rng, s)
}

// singlePairR implements Algorithm 1: R walks from u and R walks from v
// advance in lockstep; at every step t each coinciding position w adds
// cᵗ·D_ww·α·β/R² to the estimate, where α and β count the walks of each
// side at w.
func (e *Snapshot) singlePairR(u, v uint32, R int, r *rng.Source, s *scratch) float64 {
	upos := s.walkBuf(R)
	vpos := s.walkBuf2(R)
	lane := s.laneBuf(R)
	resetWalks(upos, u)
	resetWalks(vpos, v)

	sigma := 0.0
	ct := 1.0
	invR2 := 1.0 / (float64(R) * float64(R))
	aliveU, aliveV := R, R
	for t := 0; t < e.p.T; t++ {
		if t > 0 {
			aliveU = e.wt.StepWalks(r, upos, lane)
			aliveV = e.wt.StepWalks(r, vpos, lane)
			ct *= e.p.C
		}
		if aliveU == 0 || aliveV == 0 {
			break // all walks on one side are dead; no further terms
		}
		s.beginTally()
		for _, w := range vpos {
			if w != Dead {
				s.tallyCount(w)
			}
		}
		// Σ_w D_ww·α_w·β_w accumulated by scanning the u-side walk
		// positions in slice order (each of the α_w walks at w adds
		// D_ww·β_w once), which keeps floating-point summation order —
		// and therefore results — deterministic for a fixed seed.
		for _, w := range upos {
			if w != Dead && s.mark[w] == s.epoch {
				sigma += ct * e.p.dval(w) * float64(s.cnt[w]) * invR2
			}
		}
	}
	return sigma
}
