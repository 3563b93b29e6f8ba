package router

import (
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
	// wire messages that own backing arrays, and the reply-owned fragment
	// rows — what a JSON body decoded to, and the one-row answer of a topk.
	frame    wire.Frame
	batch    wire.BatchResp
	similar  wire.SimilarResp
	rows     [][]simrank.ShardCand
	rowStats []simrank.QueryStats

	// The view the merge reads: one fragment and one stats entry per
	// query (a topk is a batch of one), or the ranked list of a similar.
	frags  [][]simrank.ShardCand
	stats  []simrank.QueryStats
	ranked []simrank.Result
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
	rfrags  [][]simrank.Result    // every shard's ranked list (similar)
	ms      simrank.MergeScratch
}

// ensure sizes every per-shard slice for n shards, keeping capacity.
func (g *gather) ensure(n int) {
	if cap(g.errs) < n {
		g.errs = make([]error, n)
		g.replies = make([]*reply, n)
		g.qfrags = make([][]simrank.ShardCand, n)
		g.rfrags = make([][]simrank.Result, n)
	}
	g.errs = g.errs[:n]
	g.replies = g.replies[:n]
	g.qfrags = g.qfrags[:n]
	g.rfrags = g.rfrags[:n]
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
		g.errs[i], g.replies[i], g.qfrags[i], g.rfrags[i] = nil, nil, nil, nil
	}
	rt.gathers.Put(g)
}

// mergeTopK replays query qi of every shard's reply through the
// fragment merge. The scan counters come out byte-identical to single
// node; the cache counters are summed over the shards (cache state is
// topology-dependent: each shard has its own tally cache).
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
