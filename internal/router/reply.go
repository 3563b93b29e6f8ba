package router

import (
	"fmt"
	"math"

	simrank "repro"
	"repro/internal/wire"
)

// reply is one attempt's decode target and, once the attempt has won,
// the routed query's merge. Every attempt decodes into a reply of its
// own (getReply), so racing attempts never share decode state; the
// winner's reply is returned by call, merged and released by the query
// (putReply), a failed attempt releases its own, and a loser that
// finishes after the race was decided is dropped to the GC. Nothing else
// writes a reply.
type reply struct {
	// Decode targets, reused across queries: the parse shell for HTTP
	// bodies (the TCP transport parses in its connection's shell) and
	// check's bitset over the range.
	frame wire.Frame
	seen  []uint64

	// The merge's input: the query's fragment and its stats.
	frag  []simrank.ShardCand
	stats simrank.QueryStats

	// The merge's working memory: its one-fragment list and scratch.
	frags [1][]simrank.ShardCand
	ms    simrank.MergeScratch
}

// check holds a decoded answer's fragment to what the merge assumes of
// it: (UB desc, V asc) order, no vertex twice, every vertex in
// the range [lo, hi) asked for, a known state and no NaN. A failed check
// is a bad answer; a passing one allocates nothing.
func (rp *reply) check(lo, hi int) error {
	words := (hi - lo + 63) / 64
	if cap(rp.seen) < words {
		rp.seen = make([]uint64, words)
	}
	seen := rp.seen[:words]
	n, err := checkFrag(rp.frag, lo, hi, seen)
	for _, c := range rp.frag[:n] { // leave seen all zero for the next answer
		seen[(int(c.V)-lo)/64] = 0
	}
	if err != nil {
		return badAnswer("fragment: %v", err)
	}
	return nil
}

// checkFrag checks one fragment against seen, which it finds all zero,
// and reports how many entries it marked there.
func checkFrag(f []simrank.ShardCand, lo, hi int, seen []uint64) (int, error) {
	for i, c := range f {
		switch {
		case int64(c.V) < int64(lo) || int64(c.V) >= int64(hi):
			return i, fmt.Errorf("vertex %d outside the range [%d, %d) asked for", c.V, lo, hi)
		case c.State > simrank.ShardScoredNoRough:
			return i, fmt.Errorf("vertex %d in unknown state %d", c.V, c.State)
		case math.IsNaN(c.UB) || math.IsNaN(c.Rough) || math.IsNaN(c.Score):
			return i, fmt.Errorf("vertex %d carries a NaN", c.V)
		case i > 0 && (f[i-1].UB < c.UB || f[i-1].UB == c.UB && f[i-1].V >= c.V):
			return i, fmt.Errorf("vertex %d (bound %v) after vertex %d (bound %v)", c.V, c.UB, f[i-1].V, f[i-1].UB)
		}
		w, bit := (int(c.V)-lo)/64, uint64(1)<<((int(c.V)-lo)%64)
		if seen[w]&bit != 0 {
			return i, fmt.Errorf("vertex %d twice", c.V)
		}
		seen[w] |= bit
	}
	return len(f), nil
}

func (rt *Router) getReply() *reply {
	return rt.replies.Get().(*reply)
}

// putReply empties rp's answer and returns it to the pool: a reply read
// after its release reads no fragment and zero stats.
func (rt *Router) putReply(rp *reply) {
	rp.frag, rp.stats = rp.frag[:0], simrank.QueryStats{}
	rt.replies.Put(rp)
}

// merge replays rp's fragment — the whole vertex range, from the one
// server that won — through the fragment merge at floor theta: the
// serving one for a top-k, the query's own with k = 0 for a similar. A
// one-fragment merge is the single-node scan, so results and scan
// counters come out byte-identical to a single node; the cache counters
// are that server's.
func (rp *reply) merge(k int, theta float64, wantStats bool) ([]simrank.Result, *simrank.QueryStats) {
	rp.frags[0] = rp.frag
	res, st := simrank.MergeShardTopKScratch(k, theta, rp.frags[:], &rp.ms)
	if !wantStats {
		return res, nil
	}
	st.AddCache(rp.stats)
	return res, &st
}
