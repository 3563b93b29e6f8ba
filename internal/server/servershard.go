package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	simrank "repro"
	"repro/internal/shard"
	"repro/internal/wire"
)

// counters are the serving counters behind /statusz. They count
// accepted queries (validation passed), so a load balancer's view of
// "work done" excludes malformed requests; query timeouts are counted
// separately.
type counters struct {
	queries      atomic.Int64 // single /topk queries
	batches      atomic.Int64 // /topk/batch requests
	batchQueries atomic.Int64 // queries carried by those batches
	batchMax     atomic.Int64 // largest accepted batch
	similar      atomic.Int64 // /similar queries
	pairs        atomic.Int64 // /pair queries
	shardQueries atomic.Int64 // /shard/topk + /shard/similar queries
	timeouts     atomic.Int64 // queries cut off by QueryTimeout
	binConns     atomic.Int64 // binary TCP connections accepted
	binRequests  atomic.Int64 // shard requests answered in binary (TCP or HTTP)
	wireBytesIn  atomic.Int64 // binary frame bytes read
	wireBytesOut atomic.Int64 // binary frame bytes written
	encodeNS     atomic.Int64 // ns spent encoding binary responses
	decodeNS     atomic.Int64 // ns spent parsing binary requests
}

func (c *counters) noteBatch(size int) {
	c.batches.Add(1)
	c.batchQueries.Add(int64(size))
	storeMax(&c.batchMax, int64(size))
}

// storeMax lifts v into the atomic max register.
func storeMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur; cur = a.Load() {
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// StatuszResponse is the payload of /statusz: serving counters sourced
// from the per-query QueryStats plus the index-wide cache state and
// this server's shard manifest.
type StatuszResponse struct {
	QueriesTotal      int64 `json:"queries_total"`
	BatchesTotal      int64 `json:"batches_total"`
	BatchQueriesTotal int64 `json:"batch_queries_total"`
	BatchSizeMax      int64 `json:"batch_size_max"`
	SimilarTotal      int64 `json:"similar_total"`
	PairsTotal        int64 `json:"pairs_total"`
	ShardQueriesTotal int64 `json:"shard_queries_total"`
	TimeoutsTotal     int64 `json:"timeouts_total"`
	// Cache is the index-wide lifetime state (hits, misses, evictions,
	// footprint) of the cross-query cache — query rows under the linear
	// scorer, candidate tallies otherwise: the aggregate of every query's
	// cache counters since the snapshot was built.
	Cache *simrank.CacheStats `json:"cache"`
	// Prolog is the query-prolog walk-distribution cache state (nil when
	// the cache is disabled).
	Prolog *simrank.CacheStats `json:"prolog,omitempty"`
	// Wire is the binary wire-protocol activity (nil-free; all zero when
	// every request negotiated JSON).
	Wire  WireCountersJSON `json:"wire"`
	Shard shard.Manifest   `json:"shard"`
}

// WireCountersJSON is the binary-protocol slice of /statusz.
type WireCountersJSON struct {
	BinConnsTotal    int64 `json:"bin_conns_total"`
	BinRequestsTotal int64 `json:"bin_requests_total"`
	BytesReceived    int64 `json:"bytes_received"`
	BytesSent        int64 `json:"bytes_sent"`
	EncodeNs         int64 `json:"encode_ns"`
	DecodeNs         int64 `json:"decode_ns"`
}

func (h *Handler) handleStatusz(w http.ResponseWriter, r *http.Request) {
	cache, prolog := h.idx.CacheStats(), h.idx.PrologStats()
	resp := StatuszResponse{
		QueriesTotal:      h.counters.queries.Load(),
		BatchesTotal:      h.counters.batches.Load(),
		BatchQueriesTotal: h.counters.batchQueries.Load(),
		BatchSizeMax:      h.counters.batchMax.Load(),
		SimilarTotal:      h.counters.similar.Load(),
		PairsTotal:        h.counters.pairs.Load(),
		ShardQueriesTotal: h.counters.shardQueries.Load(),
		TimeoutsTotal:     h.counters.timeouts.Load(),
		Cache:             &cache,
		Wire: WireCountersJSON{
			BinConnsTotal:    h.counters.binConns.Load(),
			BinRequestsTotal: h.counters.binRequests.Load(),
			BytesReceived:    h.counters.wireBytesIn.Load(),
			BytesSent:        h.counters.wireBytesOut.Load(),
			EncodeNs:         h.counters.encodeNS.Load(),
			DecodeNs:         h.counters.decodeNS.Load(),
		},
		Shard: h.manifestView(),
	}
	if prolog.BudgetBytes != 0 { // a disabled prolog cache is left out
		resp.Prolog = &prolog
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleShardInfo publishes the manifest: GET /shardinfo.
func (h *Handler) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.manifestView())
}

// ShardTopKResponse is the payload of /shard/topk and /shard/similar: the
// scored fragment for the owned vertex range, plus this shard's stats
// (cache counters matter to the router; scan counters are recomputed by
// the merge).
//
// Both encodings of a fragment are exact: the binary codec ships raw
// float64 bits and Go's JSON float64 round-trip is exact (shortest
// representation), so a decoded fragment is bit-identical to the shard's —
// which the byte-identity guarantee of the merge replay rests on.
type ShardTopKResponse struct {
	Query    int                 `json:"query"`
	Shard    int                 `json:"shard"`
	Frag     []simrank.ShardCand `json:"frag"`
	Stats    *simrank.QueryStats `json:"stats,omitempty"`
	ElapsedM float64             `json:"elapsed_ms"`
}

// shardReq is one shard request — one query — whichever transport
// carried it: the two /shard/* endpoints and the TCP listener all decode
// into it, and everything after the decode — validation, the scan, both
// response encodings — is written once against it. Every server holds the
// full snapshot, so lo/hi may name any vertex range (the router hedges a
// slow shard or fails over a down one to a different server); they
// default to the owned manifest range where the query string omits them.
type shardReq struct {
	kind   uint8 // wire.MsgTopKReq or wire.MsgSimilarReq
	u      int
	theta  float64 // the scan's floor: the manifest's for topk, the request's for similar
	lo, hi int
}

// shardReqFromURL decodes a GET shard request (topk or similar) from
// its query string: u, optional lo/hi, and for similar optional theta.
func (h *Handler) shardReqFromURL(kind uint8, q url.Values) (shardReq, error) {
	req := shardReq{kind: kind, theta: h.manifest.Theta}
	var err error
	if req.u, err = IntParam(q, "u", -1); err != nil {
		return req, err
	}
	if req.lo, err = IntParam(q, "lo", h.manifest.Lo); err != nil {
		return req, err
	}
	if req.hi, err = IntParam(q, "hi", h.manifest.Hi); err != nil {
		return req, err
	}
	if kind == wire.MsgSimilarReq {
		req.theta, err = ThetaParam(q, 0.01)
	}
	return req, err
}

// shardReqFromFrame decodes a parsed request frame: one message on the
// TCP listener.
func (h *Handler) shardReqFromFrame(f *wire.Frame) (shardReq, error) {
	switch f.Type {
	case wire.MsgTopKReq:
		r, err := f.TopKReq()
		return shardReq{kind: f.Type, u: int(r.U), theta: h.manifest.Theta, lo: int(r.Lo), hi: int(r.Hi)}, err
	case wire.MsgSimilarReq:
		// checkTheta is ThetaParam's check: a NaN smuggled in as raw frame
		// bits fails it too.
		r, err := f.SimilarReq()
		if err == nil {
			err = checkTheta(r.Theta)
		}
		return shardReq{kind: f.Type, u: int(r.U), theta: r.Theta, lo: int(r.Lo), hi: int(r.Hi)}, err
	}
	return shardReq{}, fmt.Errorf("unsupported message type %d", f.Type)
}

// run executes a decoded request into ss: its fragment and stats. A topk
// and a similar are both the fragment scan at req.theta; they differ only
// in where the floor came from. The decoders have checked theta; the
// query vertex and the range are SimilarShardCtx's to check, and a request
// counts as a shard query once it has passed them — answered, or cut off
// by its context.
func (h *Handler) run(ctx context.Context, req *shardReq, ss *shardScratch) error {
	var err error
	ss.frag, ss.st, err = h.idx.SimilarShardCtx(ctx, req.u, req.theta, req.lo, req.hi, ss.frag[:0])
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		h.counters.shardQueries.Add(1)
	}
	return err
}

// encodeResp renders run's output as a response frame into buf.
func (h *Handler) encodeResp(buf *wire.Buf, req *shardReq, ss *shardScratch, elapsed time.Duration) {
	t0 := time.Now()
	buf.B = wire.AppendTopKResp(buf.B[:0], &wire.TopKResp{Query: uint32(req.u), Shard: int32(h.manifest.Shard),
		ElapsedUS: elapsed.Microseconds(), Stats: ss.st, Frag: ss.frag})
	h.counters.encodeNS.Add(time.Since(t0).Nanoseconds())
	h.counters.binRequests.Add(1)
}

// jsonResp renders run's output as the endpoint's JSON payload.
func (h *Handler) jsonResp(req *shardReq, ss *shardScratch, elapsed time.Duration) ShardTopKResponse {
	return ShardTopKResponse{Query: req.u, Shard: h.manifest.Shard, Frag: ss.frag, Stats: &ss.st,
		ElapsedM: float64(elapsed.Microseconds()) / 1000}
}

// serveShard is the HTTP face of the shard endpoints: decode → run →
// encode. The request arrives as a GET query string; the answer
// leaves as a frame iff the client negotiated one (Accept), as JSON
// otherwise. Errors stay JSON on HTTP — status codes and the stable error
// body are the contract there.
func (h *Handler) serveShard(w http.ResponseWriter, r *http.Request, kind uint8) {
	ss := h.getShardScratch()
	defer h.putShardScratch(ss)
	req, err := h.shardReqFromURL(kind, r.URL.Query())
	if err != nil {
		h.writeQueryError(w, err)
		return
	}
	ctx, cancel := h.queryCtx(r)
	defer cancel()
	start := time.Now()
	if err := h.run(ctx, &req, ss); err != nil {
		h.writeQueryError(w, err)
		return
	}
	if !wantBin(r) {
		writeJSON(w, http.StatusOK, h.jsonResp(&req, ss, time.Since(start)))
		return
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	h.encodeResp(buf, &req, ss, time.Since(start))
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(buf.B)
	h.counters.wireBytesOut.Add(int64(n))
}

// handleShardTopK answers GET /shard/topk?u=42: candidates of u inside
// the owned range (or an explicit lo/hi override), scored at the fixed
// floor theta.
func (h *Handler) handleShardTopK(w http.ResponseWriter, r *http.Request) {
	h.serveShard(w, r, wire.MsgTopKReq)
}

// handleShardSimilar answers GET /shard/similar?u=42&theta=0.05: the
// owned range's fragment scanned at the floor theta instead of the
// serving one, in /shard/topk's answer shape; merged with k = 0 at theta
// it is the threshold query's answer.
func (h *Handler) handleShardSimilar(w http.ResponseWriter, r *http.Request) {
	h.serveShard(w, r, wire.MsgSimilarReq)
}
