// Package server exposes a similarity-search index over HTTP with a small
// JSON API, so the library can run as a standalone service:
//
//	GET /topk?u=42&k=20          -> {"query":42,"results":[{"node":7,"score":0.31},...]}
//	GET /topk?u=42&k=20&stats=1  -> same, plus per-query pruning + cache statistics
//	POST /topk/batch             -> {"queries":[1,2,...],"k":20,"stats":true} answers
//	                                many queries against one snapshot, sharing the
//	                                tally cache across the batch
//	GET /pair?u=42&v=99          -> {"u":42,"v":99,"score":0.018}
//	GET /similar?u=42&theta=0.05 -> same shape as /topk
//	GET /stats                   -> graph and index statistics
//	GET /statusz                 -> serving counters (queries, batches, cache, timeouts)
//	GET /healthz                 -> 200 ok (process is up)
//	GET /readyz                  -> 200 ok (index built, queries served)
//
// A handler can also serve as one shard of a topology (NewShard): the
// shard-serving endpoints restrict candidate scoring to the owned vertex
// range and are consumed by the router tier (internal/router), which
// merges per-shard fragments back into byte-identical single-node
// answers:
//
//	GET /shardinfo               -> shard manifest (range, graph/params fingerprints, wire version)
//	GET /shard/topk?u=42         -> scored candidate fragment for the owned range
//	POST /shard/topk/batch       -> {"queries":[...]} fragments for many queries
//	GET /shard/similar?u=42&theta=0.05 -> the owned range's fragment scored at floor theta
//
// Errors carry a JSON body {"error": msg, "code": stable_code}; retryable
// 503s (timeout, cancellation, not-ready) also set Retry-After.
//
// The handler is safe for concurrent requests; the underlying index is an
// immutable snapshot. Every query runs under the request context (plus
// QueryTimeout, when set), so client disconnects and deadlines cancel the
// walk computation between candidate-scoring blocks.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	simrank "repro"
	"repro/internal/shard"
)

// Handler serves the JSON API for one index — either a stand-alone
// server (shard 0 of 1, the default) or one shard of a topology, in
// which case the /shard/* endpoints restrict candidate scoring to the
// owned vertex range and /shardinfo publishes the manifest a router
// validates before merging fragments. The full single-node endpoints
// stay available in either role (a shard holds the whole snapshot; the
// partition splits scoring work, not data).
type Handler struct {
	idx      *simrank.Index
	mux      *http.ServeMux
	manifest shard.Manifest
	counters counters
	// shardPool recycles shard-request working sets (fragment buffers,
	// stats, wire message shells) across requests and connections.
	shardPool sync.Pool
	// binAddr holds the bound address of the binary wire listener once
	// ServeBin is up; advertised as Manifest.BinAddr on /shardinfo.
	binAddr atomic.Value
	// MaxK caps the k parameter to keep responses bounded (default 1000).
	MaxK int
	// MaxBatch caps the number of queries one /topk/batch request may
	// carry (default 1024).
	MaxBatch int
	// QueryTimeout bounds each query's computation (0 = no limit beyond
	// the request context).
	QueryTimeout time.Duration
}

// New returns a ready-to-mount stand-alone handler (shard 0 of 1).
func New(idx *simrank.Index) *Handler {
	return NewShard(idx, 0, 1)
}

// NewShard returns a handler serving shard shardIdx of numShards. The
// owned vertex range is the canonical partition shard.Range(shardIdx,
// numShards, n); /shard/* queries score only that range.
func NewShard(idx *simrank.Index, shardIdx, numShards int) *Handler {
	h := &Handler{idx: idx, MaxK: 1000, MaxBatch: 1024}
	h.shardPool.New = func() any { return new(shardScratch) }
	gfp, pfp := idx.ServingFingerprint()
	h.manifest = shard.Build(shardIdx, numShards, idx.Graph().NumVertices(),
		gfp, pfp, idx.Seed(), idx.Threshold())
	mux := http.NewServeMux()
	mux.HandleFunc("/topk", h.handleTopK)
	mux.HandleFunc("/topk/batch", h.handleTopKBatch)
	mux.HandleFunc("/pair", h.handlePair)
	mux.HandleFunc("/similar", h.handleSimilar)
	mux.HandleFunc("/join", h.handleJoin)
	mux.HandleFunc("/stats", h.handleStats)
	mux.HandleFunc("/statusz", h.handleStatusz)
	mux.HandleFunc("/shardinfo", h.handleShardInfo)
	mux.HandleFunc("/shard/topk", h.handleShardTopK)
	mux.HandleFunc("/shard/topk/batch", h.handleShardTopKBatch)
	mux.HandleFunc("/shard/similar", h.handleShardSimilar)
	mux.HandleFunc("/healthz", h.handleHealth)
	mux.HandleFunc("/readyz", h.handleHealth)
	h.mux = mux
	return h
}

// Manifest returns the shard manifest this handler serves under,
// including the binary listener address when one is serving.
func (h *Handler) Manifest() shard.Manifest { return h.manifestView() }

// manifestView is the manifest as published: the static topology facts
// plus the live BinAddr transport hint.
func (h *Handler) manifestView() shard.Manifest {
	m := h.manifest
	if a, ok := h.binAddr.Load().(string); ok {
		m.BinAddr = a
	}
	return m
}

// queryCtx derives the context queries run under: the request context
// (cancelled when the client disconnects) bounded by QueryTimeout.
func (h *Handler) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if h.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), h.QueryTimeout)
	}
	return r.Context(), func() {}
}

// Stable machine-readable error codes (ErrorResponse.Code). The router
// keys retry/hedge decisions off these, never off message text.
const (
	CodeBadRequest = "bad_request"
	CodeTimeout    = "timeout"
	CodeCancelled  = "cancelled"
	CodeNotReady   = "not_ready"
	CodeInternal   = "internal"
	// CodeUpstream is used by the router tier when a shard request
	// exhausted every attempt; the single-node handler never emits it.
	CodeUpstream = "upstream"
)

// errStatus maps a request failure to the HTTP status, stable code and
// message both error encodings carry (WriteError on HTTP, MsgError
// frames on TCP), counting timeouts: context errors are 503s (the query
// was cut short by load or disconnect, not malformed — a client may
// retry), everything else is a client error.
func (h *Handler) errStatus(err error) (status int, code, msg string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		h.counters.timeouts.Add(1)
		return http.StatusServiceUnavailable, CodeTimeout, "query timed out"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, CodeCancelled, "query cancelled"
	default:
		return http.StatusBadRequest, CodeBadRequest, err.Error()
	}
}

// writeQueryError answers a failed request in the JSON error shape,
// with Retry-After on the retryable 503s.
func (h *Handler) writeQueryError(w http.ResponseWriter, err error) {
	status, code, msg := h.errStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteError(w, status, code, msg)
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// ResultJSON is one scored vertex in API responses: the index's own
// result type, which carries the JSON keys. The payload types of this API
// are defined where the data is produced — simrank.Result here,
// QueryStats, CacheStats and ShardCand in internal/core (aliased by the
// root package) — and every tier serializes them as they are.
type ResultJSON = simrank.Result

// TopKResponse is the payload of /topk and /similar.
type TopKResponse struct {
	Query    int              `json:"query"`
	Results  []simrank.Result `json:"results"`
	ElapsedM float64          `json:"elapsed_ms"`
	// Stats is present on /topk?stats=1: pruning counters for the query.
	Stats *simrank.QueryStats `json:"stats,omitempty"`
	// Cache is present on /topk?stats=1: index-wide tally-cache state.
	Cache *simrank.CacheStats `json:"cache,omitempty"`
}

// PairResponse is the payload of /pair.
type PairResponse struct {
	U     int     `json:"u"`
	V     int     `json:"v"`
	Score float64 `json:"score"`
}

// StatsResponse is the payload of /stats.
type StatsResponse struct {
	Vertices       int     `json:"vertices"`
	Edges          int     `json:"edges"`
	IndexBytes     int64   `json:"index_bytes"`
	PreprocessSecs float64 `json:"preprocess_seconds"`
}

// ErrorResponse is returned with non-2xx statuses. Code is a stable
// machine-readable discriminator (see the Code* constants); Error is a
// human-readable message that may change between versions.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func (h *Handler) handleTopK(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	u, err := IntParam(q, "u", -1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	k, err := KParam(q, h.MaxK)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	h.counters.queries.Add(1)
	ctx, cancel := h.queryCtx(r)
	defer cancel()
	start := time.Now()
	res, st, err := h.idx.TopKWithStatsCtx(ctx, u, k)
	if err != nil {
		h.writeQueryError(w, err)
		return
	}
	resp := TopKResponse{Query: u, Results: res}
	if q.Get("stats") == "1" {
		stats, cache := st, h.idx.CacheStats()
		resp.Stats, resp.Cache = &stats, &cache
	}
	resp.ElapsedM = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// BatchRequest is the payload of POST /topk/batch.
type BatchRequest struct {
	Queries []int `json:"queries"`
	K       int   `json:"k"`
	// Stats requests per-query pruning/cache statistics in the response.
	Stats bool `json:"stats"`
}

// BatchResponse is the payload of POST /topk/batch: one TopKResponse per
// query, in request order, plus the index-wide cache state after the
// batch.
type BatchResponse struct {
	K        int                 `json:"k"`
	Results  []TopKResponse      `json:"results"`
	ElapsedM float64             `json:"elapsed_ms"`
	Cache    *simrank.CacheStats `json:"cache,omitempty"`
}

// DecodeBatchRequest reads the body of POST /topk/batch and applies the
// limits both tiers share: a non-empty query list of at most maxBatch,
// and k (20 when absent) within [1, maxK].
//
//lint:sanitized a nil error means the query count was checked against maxBatch and k against maxK
func DecodeBatchRequest(body io.Reader, maxBatch, maxK int) (BatchRequest, error) {
	var req BatchRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return req, fmt.Errorf("invalid JSON body: %w", err)
	}
	if err := checkBatchSize(len(req.Queries), maxBatch); err != nil {
		return req, err
	}
	if req.K == 0 {
		req.K = 20
	}
	return req, checkK(req.K, maxK)
}

func checkBatchSize(n, maxBatch int) error {
	if n == 0 {
		return errors.New("queries must be non-empty")
	}
	if n > maxBatch {
		return fmt.Errorf("batch size %d exceeds limit %d", n, maxBatch)
	}
	return nil
}

func checkK(k, maxK int) error {
	if k <= 0 || k > maxK {
		return fmt.Errorf("k must be in [1, %d]", maxK)
	}
	return nil
}

// handleTopKBatch answers POST /topk/batch: a JSON body with a query
// slice, fanned over the index's workers against one snapshot with the
// shared tally cache. Per-query elapsed time is not reported (queries
// run concurrently); ElapsedM is the wall-clock for the whole batch.
func (h *Handler) handleTopKBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	req, err := DecodeBatchRequest(r.Body, h.MaxBatch, h.MaxK)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	h.counters.noteBatch(len(req.Queries))
	ctx, cancel := h.queryCtx(r)
	defer cancel()
	start := time.Now()
	res, sts, err := h.idx.TopKBatchWithStatsCtx(ctx, req.Queries, req.K)
	if err != nil {
		h.writeQueryError(w, err)
		return
	}
	resp := BatchResponse{
		K:       req.K,
		Results: make([]TopKResponse, len(res)),
	}
	for i := range res {
		resp.Results[i] = TopKResponse{Query: req.Queries[i], Results: res[i]}
		if req.Stats {
			resp.Results[i].Stats = &sts[i]
		}
	}
	resp.ElapsedM = float64(time.Since(start).Microseconds()) / 1000
	if req.Stats {
		cache := h.idx.CacheStats()
		resp.Cache = &cache
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) handlePair(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	u, err := IntParam(q, "u", -1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	v, err := IntParam(q, "v", -1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	h.counters.pairs.Add(1)
	ctx, cancel := h.queryCtx(r)
	defer cancel()
	score, err := h.idx.SinglePairCtx(ctx, u, v)
	if err != nil {
		h.writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PairResponse{U: u, V: v, Score: score})
}

func (h *Handler) handleSimilar(w http.ResponseWriter, r *http.Request) {
	u, err := IntParam(r.URL.Query(), "u", -1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	theta, err := ThetaParam(r.URL.Query(), 0.01)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	h.counters.similar.Add(1)
	ctx, cancel := h.queryCtx(r)
	defer cancel()
	start := time.Now()
	res, err := h.idx.SimilarCtx(ctx, u, theta)
	if err != nil {
		h.writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, TopKResponse{
		Query:    u,
		Results:  res,
		ElapsedM: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// JoinPairJSON is one similarity-join pair.
type JoinPairJSON struct {
	U     int     `json:"u"`
	V     int     `json:"v"`
	Score float64 `json:"score"`
}

// JoinResponse is the payload of /join.
type JoinResponse struct {
	Theta    float64        `json:"theta"`
	Pairs    []JoinPairJSON `json:"pairs"`
	ElapsedM float64        `json:"elapsed_ms"`
}

// handleJoin runs a similarity join: GET /join?theta=0.1&max=100.
// The join queries every vertex, so MaxK also caps max here.
func (h *Handler) handleJoin(w http.ResponseWriter, r *http.Request) {
	theta, err := ThetaParam(r.URL.Query(), 0.1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	max, err := IntParam(r.URL.Query(), "max", 100)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if max <= 0 || max > h.MaxK {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("max must be in [1, %d]", h.MaxK))
		return
	}
	ctx, cancel := h.queryCtx(r)
	defer cancel()
	start := time.Now()
	pairs, err := h.idx.SimilarityJoinCtx(ctx, theta, max)
	if err != nil {
		h.writeQueryError(w, err)
		return
	}
	out := make([]JoinPairJSON, len(pairs))
	for i, p := range pairs {
		out[i] = JoinPairJSON{U: p.U, V: p.V, Score: p.Score}
	}
	writeJSON(w, http.StatusOK, JoinResponse{
		Theta:    theta,
		Pairs:    out,
		ElapsedM: float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	g := h.idx.Graph()
	st := h.idx.Stats()
	writeJSON(w, http.StatusOK, StatsResponse{
		Vertices:       g.NumVertices(),
		Edges:          g.NumEdges(),
		IndexBytes:     st.IndexBytes,
		PreprocessSecs: st.PreprocessTime.Seconds(),
	})
}

func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// IntParam parses an integer query parameter; def < 0 means required.
// Exported, with KParam, ThetaParam and DecodeBatchRequest, so the router
// validates a request with the code — and the messages — of the tier it
// stands in front of.
func IntParam(q url.Values, name string, def int) (int, error) {
	s := q.Get(name)
	if s == "" {
		if def >= 0 {
			return def, nil
		}
		return 0, fmt.Errorf("missing required parameter %q", name)
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %q must be an integer", name)
	}
	return v, nil
}

// KParam parses the k of a top-k query: 20 when absent, within [1, maxK].
func KParam(q url.Values, maxK int) (int, error) {
	k, err := IntParam(q, "k", 20)
	if err != nil {
		return 0, err
	}
	return k, checkK(k, maxK)
}

var errTheta = errors.New("theta must be a float in (0, 1]")

// checkTheta accepts a threshold inside (0, 1]. Written so that NaN fails
// — it compares false with everything, and a scan against a NaN floor
// prunes nothing — wherever the value came from: a query string, or raw
// bits in a frame.
func checkTheta(theta float64) error {
	if !(theta > 0 && theta <= 1) {
		return errTheta
	}
	return nil
}

// ThetaParam parses the theta of a threshold query, def when absent: the
// one validator of /similar, /join and /shard/similar on both tiers.
func ThetaParam(q url.Values, def float64) (float64, error) {
	s := q.Get("theta")
	if s == "" {
		return def, nil
	}
	theta, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, errTheta
	}
	return theta, checkTheta(theta)
}

func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(payload)
}

// WriteError writes a JSON error body with a stable code. Exported so
// the bootstrap not-ready handler (cmd/simserver) and the router speak
// the same error shape as the query handlers.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

// writeError is the bare-message form used for request validation
// failures; the code is always bad_request.
func writeError(w http.ResponseWriter, status int, msg string) {
	code := CodeBadRequest
	if status >= 500 {
		code = CodeInternal
	}
	WriteError(w, status, code, msg)
}
