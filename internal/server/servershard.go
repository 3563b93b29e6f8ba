package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	shardBatches atomic.Int64 // /shard/topk/batch requests
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
	ShardBatchesTotal int64 `json:"shard_batches_total"`
	TimeoutsTotal     int64 `json:"timeouts_total"`
	// Cache is the index-wide tally-cache lifetime state (hits, misses,
	// evictions, footprint) — the aggregate of every query's cache
	// counters since the snapshot was built.
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
		ShardBatchesTotal: h.counters.shardBatches.Load(),
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

// ShardBatchRequest is the JSON payload of POST /shard/topk/batch. Lo/Hi,
// when present, override the owned range (router failover/hedging).
type ShardBatchRequest struct {
	Queries []uint32 `json:"queries"`
	Lo      *int     `json:"lo,omitempty"`
	Hi      *int     `json:"hi,omitempty"`
}

// ShardBatchResponse is one ShardTopKResponse per query, request order.
type ShardBatchResponse struct {
	Shard    int                 `json:"shard"`
	Results  []ShardTopKResponse `json:"results"`
	ElapsedM float64             `json:"elapsed_ms"`
}

// shardReq is one shard request, whichever transport carried it and
// whichever encoding it arrived in: the three /shard/* endpoints and the
// TCP listener all decode into it, and everything after the decode —
// validation, the scan, both response encodings — is written once
// against it. Every server holds the full snapshot, so lo/hi may name
// any vertex range (the router hedges a slow shard or fails over a down
// one to a different server); they default to the owned manifest range
// where the encoding lets them be omitted.
type shardReq struct {
	kind    uint8 // wire.MsgTopKReq, wire.MsgBatchReq or wire.MsgSimilarReq
	u       int
	theta   float64 // the scan's floor: the manifest's for topk, the request's for similar
	lo, hi  int
	queries []uint32 // batch only
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

// shardReqFromJSON decodes the JSON body of POST /shard/topk/batch.
func (h *Handler) shardReqFromJSON(body io.Reader) (shardReq, error) {
	var jr ShardBatchRequest
	if err := json.NewDecoder(body).Decode(&jr); err != nil {
		return shardReq{}, fmt.Errorf("invalid JSON body: %w", err)
	}
	req := shardReq{kind: wire.MsgBatchReq, lo: h.manifest.Lo, hi: h.manifest.Hi, queries: jr.Queries}
	if jr.Lo != nil {
		req.lo = *jr.Lo
	}
	if jr.Hi != nil {
		req.hi = *jr.Hi
	}
	return req, nil
}

// shardReqFromFrame decodes a parsed request frame — one message on the
// TCP listener, or the body of a binary HTTP POST. A batch's queries
// are copied into breq, so the frame's bytes may be reused on return.
func (h *Handler) shardReqFromFrame(f *wire.Frame, breq *wire.BatchReq) (shardReq, error) {
	switch f.Type {
	case wire.MsgTopKReq:
		r, err := f.TopKReq()
		return shardReq{kind: f.Type, u: int(r.U), theta: h.manifest.Theta, lo: int(r.Lo), hi: int(r.Hi)}, err
	case wire.MsgBatchReq:
		err := f.BatchReq(breq)
		return shardReq{kind: f.Type, lo: int(breq.Lo), hi: int(breq.Hi), queries: breq.Queries}, err
	case wire.MsgSimilarReq:
		r, err := f.SimilarReq()
		return shardReq{kind: f.Type, u: int(r.U), theta: r.Theta, lo: int(r.Lo), hi: int(r.Hi)}, err
	}
	return shardReq{}, fmt.Errorf("unsupported message type %d", f.Type)
}

// shardReqFromBody reads a binary POST body as one request frame of the
// given kind, parsing in f and decoding through breq.
func (h *Handler) shardReqFromBody(kind uint8, body io.Reader, f *wire.Frame, breq *wire.BatchReq) (shardReq, error) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	data, err := wire.ReadFrame(body, buf)
	if err != nil {
		return shardReq{}, fmt.Errorf("invalid binary body: %w", err)
	}
	h.counters.wireBytesIn.Add(int64(len(data)))
	t0 := time.Now()
	var req shardReq
	if err = f.Parse(data); err == nil {
		req, err = h.shardReqFromFrame(f, breq)
	}
	h.counters.decodeNS.Add(time.Since(t0).Nanoseconds())
	if err == nil && req.kind != kind {
		err = fmt.Errorf("message type %d on the wrong endpoint", req.kind)
	}
	if err != nil {
		return shardReq{}, fmt.Errorf("invalid binary body: %w", err)
	}
	return req, nil
}

// checkShardReq is the one validator between the three decoders and the
// scans: the vertex range and every vertex against the manifest, the
// batch size against MaxBatch, theta inside (0, 1] (checkTheta: a NaN
// smuggled in as raw frame bits fails too).
//
//lint:sanitized a nil return means every field of req was range-checked against the manifest and the handler limits
func (h *Handler) checkShardReq(req *shardReq) error {
	n := h.manifest.Vertices
	if req.lo < 0 || req.hi < req.lo || req.hi > n {
		return fmt.Errorf("range [%d, %d) invalid for %d vertices", req.lo, req.hi, n)
	}
	if req.kind == wire.MsgBatchReq {
		if err := checkBatchSize(len(req.queries), h.MaxBatch); err != nil {
			return err
		}
		for _, u := range req.queries {
			if int64(u) >= int64(n) {
				return fmt.Errorf("vertex %d out of range [0, %d)", u, n)
			}
		}
		return nil
	}
	if req.u < 0 || req.u >= n {
		return fmt.Errorf("vertex %d out of range [0, %d)", req.u, n)
	}
	if req.kind == wire.MsgSimilarReq {
		return checkTheta(req.theta)
	}
	return nil
}

// run executes a validated request into ss: fragments and stats per
// query. A topk or a similar is a batch of one, both the fragment scan at
// req.theta; they differ only in where the floor came from.
func (h *Handler) run(ctx context.Context, req *shardReq, ss *shardScratch) error {
	if req.kind == wire.MsgBatchReq {
		h.counters.shardBatches.Add(1)
		ss.ensureBatch(len(req.queries))
		return h.idx.TopKShardBatchAppendCtx(ctx, req.queries, req.lo, req.hi, ss.frags, ss.sts)
	}
	h.counters.shardQueries.Add(1)
	ss.ensureBatch(1)
	var err error
	ss.frags[0], ss.sts[0], err = h.idx.SimilarShardCtx(ctx, req.u, req.theta, req.lo, req.hi, ss.frags[0])
	return err
}

// encodeResp renders run's output as a response frame into buf.
func (h *Handler) encodeResp(buf *wire.Buf, req *shardReq, ss *shardScratch, elapsed time.Duration) {
	t0 := time.Now()
	id, us := int32(h.manifest.Shard), elapsed.Microseconds()
	if req.kind == wire.MsgBatchReq {
		buf.B = wire.AppendBatchResp(buf.B[:0], &wire.BatchResp{
			Shard: id, ElapsedUS: us, Queries: req.queries, Stats: ss.sts, Frags: ss.frags})
	} else {
		buf.B = wire.AppendTopKResp(buf.B[:0], &wire.TopKResp{
			Query: uint32(req.u), Shard: id, ElapsedUS: us, Stats: ss.sts[0], Frag: ss.frags[0]})
	}
	h.counters.encodeNS.Add(time.Since(t0).Nanoseconds())
	h.counters.binRequests.Add(1)
}

// jsonResp renders run's output as the endpoint's JSON payload.
func (h *Handler) jsonResp(req *shardReq, ss *shardScratch, elapsed time.Duration) any {
	ms := float64(elapsed.Microseconds()) / 1000
	one := func(u, i int) ShardTopKResponse {
		return ShardTopKResponse{Query: u, Shard: h.manifest.Shard, Frag: ss.frags[i], Stats: &ss.sts[i]}
	}
	if req.kind != wire.MsgBatchReq {
		resp := one(req.u, 0)
		resp.ElapsedM = ms
		return resp
	}
	resp := ShardBatchResponse{Shard: h.manifest.Shard, Results: make([]ShardTopKResponse, len(req.queries)), ElapsedM: ms}
	for i, u := range req.queries {
		resp.Results[i] = one(int(u), i)
	}
	return resp
}

// serveShard is the HTTP face of the shard endpoints: decode → check →
// run → encode. The request arrives as a query string, a JSON body or a
// binary frame body (Content-Type); the answer leaves as a frame iff the
// client negotiated one (Accept), as JSON otherwise. Errors stay JSON on
// HTTP — status codes and the stable error body are the contract there.
func (h *Handler) serveShard(w http.ResponseWriter, r *http.Request, kind uint8) {
	ss := h.getShardScratch()
	defer h.putShardScratch(ss)
	var req shardReq
	var err error
	switch {
	case kind != wire.MsgBatchReq:
		req, err = h.shardReqFromURL(kind, r.URL.Query())
	case binBody(r):
		req, err = h.shardReqFromBody(kind, r.Body, &ss.frame, &ss.breq)
	default:
		req, err = h.shardReqFromJSON(r.Body)
	}
	if err != nil {
		h.writeQueryError(w, err)
		return
	}
	if err := h.checkShardReq(&req); err != nil {
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

// handleShardTopKBatch answers POST /shard/topk/batch.
func (h *Handler) handleShardTopKBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	h.serveShard(w, r, wire.MsgBatchReq)
}

// handleShardSimilar answers GET /shard/similar?u=42&theta=0.05: the
// owned range's fragment scanned at the floor theta instead of the
// serving one, in /shard/topk's answer shape; merged with k = 0 at theta
// it is the threshold query's answer.
func (h *Handler) handleShardSimilar(w http.ResponseWriter, r *http.Request) {
	h.serveShard(w, r, wire.MsgSimilarReq)
}
