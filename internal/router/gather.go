package router

import (
	"fmt"
	"math"

	simrank "repro"
	"repro/internal/wire"
)

// reply is one attempt's decode target and, once the attempt has won,
// one shard's input to the merge. Every attempt decodes into a reply of
// its own (getReply), so racing attempts never share decode state; the
// winner's reply is handed to the gather and released by putGather, a
// failed attempt releases its own, and a loser that finishes after the
// race was decided is dropped to the GC. Nothing else writes a reply.
type reply struct {
	// Decode targets, reused across queries: the parse shell for HTTP
	// bodies (the TCP transport parses in its connection's shell), the
	// batch message that owns its backing arrays, and the reply-owned
	// fragment rows — what a JSON body decoded to, and the one-row answer
	// of a topk or a similar. seen is check's bitset over the range.
	frame    wire.Frame
	batch    wire.BatchResp
	rows     [][]simrank.ShardCand
	rowStats []simrank.QueryStats
	seen     []uint64

	// The view the merge reads: one fragment and one stats entry per
	// query (a topk or a similar is a batch of one).
	frags [][]simrank.ShardCand
	stats []simrank.QueryStats
}

// setRows sizes the reply-owned rows for q queries and points the merge
// view at them. Every row is an independent allocation, so capacity
// reuse never overlaps rows.
func (rp *reply) setRows(q int) {
	for len(rp.rows) < q {
		rp.rows = append(rp.rows, nil)
	}
	rp.rows = rp.rows[:q]
	if cap(rp.rowStats) < q {
		rp.rowStats = make([]simrank.QueryStats, q)
	}
	rp.rowStats = rp.rowStats[:q]
	rp.frags, rp.stats = rp.rows, rp.rowStats
}

// check holds every fragment of a decoded answer to what the merge
// assumes of it: (UB desc, V asc) order, no vertex twice, every vertex in
// the range [lo, hi) asked for, a known state and no NaN. A failed check
// is a bad answer; a passing one allocates nothing.
func (rp *reply) check(lo, hi int) error {
	words := (hi - lo + 63) / 64
	if cap(rp.seen) < words {
		rp.seen = make([]uint64, words)
	}
	seen := rp.seen[:words]
	for qi, f := range rp.frags {
		n, err := checkFrag(f, lo, hi, seen)
		for _, c := range f[:n] { // leave seen all zero for the next one
			seen[(int(c.V)-lo)/64] = 0
		}
		if err != nil {
			return badAnswer("fragment %d: %v", qi, err)
		}
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

func (rt *Router) putReply(rp *reply) {
	rt.replies.Put(rp)
}

// gather is the pooled working set of one routed query: the winning
// reply (or the error) of every shard, and the merge scratch. scatter
// fills it; release it with putGather on every return path.
type gather struct {
	errs    []error
	replies []*reply
	qfrags  [][]simrank.ShardCand // query qi's fragment of every shard
	ms      simrank.MergeScratch
}

// ensure sizes every per-shard slice for n shards, keeping capacity.
func (g *gather) ensure(n int) {
	if cap(g.errs) < n {
		g.errs = make([]error, n)
		g.replies = make([]*reply, n)
		g.qfrags = make([][]simrank.ShardCand, n)
	}
	g.errs = g.errs[:n]
	g.replies = g.replies[:n]
	g.qfrags = g.qfrags[:n]
}

func (rt *Router) getGather() *gather {
	return rt.gathers.Get().(*gather)
}

// putGather releases the replies g holds, then g itself.
func (rt *Router) putGather(g *gather) {
	for i, rp := range g.replies {
		if rp != nil {
			rt.putReply(rp)
		}
		g.errs[i], g.replies[i], g.qfrags[i] = nil, nil, nil
	}
	rt.gathers.Put(g)
}

// mergeTopK replays query qi of every shard's reply through the
// fragment merge at floor theta: the serving one for a top-k, the query's
// own with k = 0 for a similar. The scan counters come out byte-identical
// to single node; the cache counters are summed over the shards (cache
// state is topology-dependent: each shard has its own tally cache).
func (g *gather) mergeTopK(qi, k int, theta float64, wantStats bool) ([]simrank.Result, *simrank.QueryStats) {
	for i, rp := range g.replies {
		g.qfrags[i] = rp.frags[qi]
	}
	res, st := simrank.MergeShardTopKScratch(k, theta, g.qfrags, &g.ms)
	if !wantStats {
		return res, nil
	}
	for _, rp := range g.replies {
		st.AddCache(rp.stats[qi])
	}
	return res, &st
}
