// Package router implements the scatter-gather tier of the distributed
// serving topology: it fans each query out to a set of shard servers
// (internal/server handlers running with -shard i/n), merges the
// per-shard fragments deterministically, and answers with results — and
// pruning statistics — byte-identical to a single-node server over the
// same index.
//
//	GET /topk?u=42&k=20[&stats=1]  -> merged via the fragment replay (MergeShardTopKScratch)
//	POST /topk/batch               -> same contract as the single-node batch endpoint
//	GET /similar?u=42&theta=0.05   -> the same replay at k = 0 over fragments scanned at theta
//	GET /statusz                   -> router counters + per-shard hedges/failures/health
//	GET /healthz, /readyz          -> process up / topology probed and validated
//
// Membership is established by Probe: every configured address must
// answer /readyz and publish a /shardinfo manifest of the router's own
// wire version, and the manifests must form one coherent topology
// (shard.ValidateTopology) — same graph and params fingerprints, same
// seed and theta, every range present exactly once. Because each server holds the full snapshot
// (the partition splits scoring work, not data), the router can ask any
// server for any vertex range: a slow shard is hedged to the next
// server after HedgeDelay, and a failed request fails over immediately,
// both through the lo/hi range override on the /shard/* endpoints.
//
// Every shard request — topk, batch, similar — goes through one path:
// a shardOp describes the request and how to decode its answer (a
// fragment per query, checked before any merge reads it: reply.check),
// and call drives the attempts (failover, and hedging when
// HedgeDelay > 0), picks each attempt's transport and keeps the
// per-shard counters.
// Shard traffic prefers the binary wire codec (internal/wire): a shard
// that advertises Manifest.BinAddr is reached over pooled persistent
// TCP; otherwise the router negotiates binary over HTTP with
// "Accept: application/x-simrank-bin"; Config.Wire == WireJSON forces
// plain JSON for every exchange. All three transports carry exact
// float64 bit patterns (the binary codec by construction, JSON via Go's
// shortest-round-trip encoding), so the merged answers are
// byte-identical regardless of transport, and every attempt decodes
// into a reply of its own, so hedged attempts race over any of them.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Wire modes (Config.Wire).
const (
	// WireBin (also the "" default) prefers the binary codec: persistent
	// TCP when a shard advertises BinAddr, Accept-negotiated HTTP
	// otherwise.
	WireBin = "bin"
	// WireJSON forces JSON over HTTP for every shard exchange.
	WireJSON = "json"
)

// Config configures a Router. Only Shards is required.
type Config struct {
	// Shards lists the shard servers' base URLs (e.g.
	// "http://127.0.0.1:8081"), one per shard, in any order — the probe
	// maps addresses to shard indexes from the manifests.
	Shards []string
	// HedgeDelay is how long to wait on a shard before sending the same
	// range request to the next server (0 disables hedging; failed
	// requests still fail over immediately).
	HedgeDelay time.Duration
	// MaxAttempts caps how many servers one range request may try,
	// counting the first (default 2, capped at len(Shards)).
	MaxAttempts int
	// QueryTimeout bounds a whole routed query across all attempts
	// (0 = no limit beyond the request context).
	QueryTimeout time.Duration
	// ProbeTimeout bounds each address during Probe and the live
	// reachability check in /statusz (default 2s).
	ProbeTimeout time.Duration
	// MaxK and MaxBatch mirror the single-node handler's limits
	// (defaults 1000 and 1024).
	MaxK     int
	MaxBatch int
	// Wire selects the shard transport encoding: WireBin (default)
	// or WireJSON.
	Wire string
	// Client is the HTTP client for shard requests (default: a client
	// with a keep-alive transport whose idle pool is sized to the
	// topology fan-out times the hedging attempts).
	Client *http.Client
}

// shardCounters tracks one shard's serving health as seen from the
// router; /statusz reports them so operators can spot a degraded shard.
type shardCounters struct {
	requests    atomic.Int64 // range fetches routed for this shard
	hedges      atomic.Int64 // extra attempts launched (slow or failed primary)
	attemptErrs atomic.Int64 // individual attempts that errored
	failures    atomic.Int64 // fetches that failed after every attempt
	bytesSent   atomic.Int64 // request bytes shipped (TCP frames + HTTP payloads)
	bytesRecv   atomic.Int64 // response bytes received
	encodeNS    atomic.Int64 // ns spent encoding binary requests
	decodeNS    atomic.Int64 // ns spent parsing binary responses
}

// Router is an http.Handler that scatter-gathers queries over a shard
// topology. It serves 503 not_ready until Probe succeeds.
type Router struct {
	cfg    Config
	client *http.Client
	mux    *http.ServeMux
	top    atomic.Pointer[topology]

	// gathers pools per-query scatter/merge working sets and replies the
	// per-attempt decode targets; binPools holds the persistent binary
	// connections per shard address.
	gathers  sync.Pool
	replies  sync.Pool
	binMu    sync.Mutex
	binPools map[string]*binPool

	queries  atomic.Int64
	batches  atomic.Int64
	batchQs  atomic.Int64
	batchMax atomic.Int64
	similar  atomic.Int64
	failures atomic.Int64
	shards   []shardCounters // indexed by shard id
}

// topology is the validated view of the shard set, swapped in
// atomically by Probe.
type topology struct {
	manifests []shard.Manifest // sorted by shard index
	addrs     []string         // addrs[i] natively serves shard i
	binAddrs  []string         // resolved binary listener of addrs[i] ("" = none)
	vertices  int
	theta     float64
}

// New returns a router for the given shard set. Call Probe before
// serving queries; until it succeeds every query answers 503 not_ready.
func New(cfg Config) *Router {
	if cfg.MaxK <= 0 {
		cfg.MaxK = 1000
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 2
	}
	if cfg.MaxAttempts > len(cfg.Shards) {
		cfg.MaxAttempts = len(cfg.Shards)
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	cfg.Shards = slices.Clone(cfg.Shards)
	for i, a := range cfg.Shards {
		cfg.Shards[i] = strings.TrimRight(a, "/")
	}
	rt := &Router{cfg: cfg, client: cfg.Client,
		shards:   make([]shardCounters, len(cfg.Shards)),
		binPools: make(map[string]*binPool),
	}
	rt.gathers.New = func() any { return new(gather) }
	rt.replies.New = func() any { return new(reply) }
	if rt.client == nil {
		// Any server can answer any range (failover/hedging), so one host
		// may carry the whole fan-out times the attempt budget; size the
		// idle pool to keep every such connection warm.
		perHost := len(cfg.Shards) * cfg.MaxAttempts
		if perHost < 8 {
			perHost = 8
		}
		rt.client = &http.Client{Transport: &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			MaxIdleConns:        perHost * maxInt(len(cfg.Shards), 1),
			MaxIdleConnsPerHost: perHost,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/topk", rt.handleTopK)
	mux.HandleFunc("/topk/batch", rt.handleTopKBatch)
	mux.HandleFunc("/similar", rt.handleSimilar)
	mux.HandleFunc("/statusz", rt.handleStatusz)
	mux.HandleFunc("/healthz", rt.handleHealth)
	mux.HandleFunc("/readyz", rt.handleReady)
	rt.mux = mux
	return rt
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// binEnabled reports whether binary shard transport is allowed.
func (rt *Router) binEnabled() bool { return rt.cfg.Wire != WireJSON }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Probe establishes membership: every configured address must answer
// /readyz and publish a manifest, and the manifests must form one
// coherent topology. On success the topology is swapped in atomically
// and the router starts serving queries.
func (rt *Router) Probe(ctx context.Context) error {
	if len(rt.cfg.Shards) == 0 {
		return errors.New("router: no shard addresses configured")
	}
	ms := make([]shard.Manifest, len(rt.cfg.Shards))
	for i, addr := range rt.cfg.Shards {
		if err := rt.probeOne(ctx, addr, &ms[i]); err != nil {
			return fmt.Errorf("router: probe %s: %w", addr, err)
		}
	}
	sorted, err := shard.ValidateTopology(ms)
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	t := &topology{
		manifests: sorted,
		addrs:     make([]string, len(sorted)),
		binAddrs:  make([]string, len(sorted)),
		vertices:  sorted[0].Vertices,
		theta:     sorted[0].Theta,
	}
	for i, m := range ms {
		t.addrs[m.Shard] = rt.cfg.Shards[i]
		t.binAddrs[m.Shard] = resolveBinAddr(rt.cfg.Shards[i], m.BinAddr)
	}
	rt.top.Store(t)
	return nil
}

// resolveBinAddr turns an advertised BinAddr into a dialable host:port.
// Shards that bound a wildcard or unspecified address mean "same host
// as my HTTP endpoint", so the port is grafted onto the HTTP host.
func resolveBinAddr(httpBase, bin string) string {
	if bin == "" {
		return ""
	}
	host, port, err := net.SplitHostPort(bin)
	if err != nil {
		return ""
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		u, err := url.Parse(httpBase)
		if err != nil || u.Hostname() == "" {
			return ""
		}
		return net.JoinHostPort(u.Hostname(), port)
	}
	return bin
}

func (rt *Router) probeOne(ctx context.Context, addr string, m *shard.Manifest) error {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	status, _, err := rt.get(pctx, addr+"/readyz")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("readyz: status %d", status)
	}
	status, body, err := rt.get(pctx, addr+"/shardinfo")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("shardinfo: status %d", status)
	}
	if err := json.Unmarshal(body, m); err != nil {
		return err
	}
	if m.Version != wire.Version {
		return fmt.Errorf("shard speaks wire version %d, this router %d", m.Version, wire.Version)
	}
	return nil
}

// get issues a plain GET under ctx and slurps the body: probe and
// statusz reachability traffic, never a shard query (those go through
// call).
func (rt *Router) get(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// upstreamError is a non-200 answer from a shard server, keeping the
// stable machine-readable code from its JSON error body.
type upstreamError struct {
	Status int
	Code   string
	Msg    string
}

func (e *upstreamError) Error() string {
	return fmt.Sprintf("shard answered %d (%s): %s", e.Status, e.Code, e.Msg)
}

func asUpstreamError(status int, body []byte) error {
	var er server.ErrorResponse
	_ = json.Unmarshal(body, &er)
	if er.Error == "" {
		er.Error = strings.TrimSpace(string(body))
	}
	return &upstreamError{Status: status, Code: er.Code, Msg: er.Error}
}

// queryCtx mirrors the single-node handler: the request context bounded
// by QueryTimeout.
func (rt *Router) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if rt.cfg.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), rt.cfg.QueryTimeout)
	}
	return r.Context(), func() {}
}

// ready loads the probed topology or answers 503 not_ready.
func (rt *Router) ready(w http.ResponseWriter) (*topology, bool) {
	t := rt.top.Load()
	if t == nil {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeNotReady, "shard topology not probed")
		return nil, false
	}
	return t, true
}

// writeQueryError maps a routed-query failure onto the same stable
// error contract the single-node handler uses, plus upstream for shard
// failures that exhausted every attempt.
func (rt *Router) writeQueryError(w http.ResponseWriter, err error) {
	rt.failures.Add(1)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeTimeout, "query timed out")
	case errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeCancelled, "query cancelled")
	default:
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusBadGateway, server.CodeUpstream, err.Error())
	}
}

// vertexParam reads the query vertex "u" and checks it against the
// topology's vertex count, so malformed queries never reach a shard.
func (rt *Router) vertexParam(w http.ResponseWriter, q url.Values, t *topology) (int, bool) {
	u, err := server.IntParam(q, "u", -1)
	if err != nil {
		writeBadRequest(w, err.Error())
		return 0, false
	}
	if u < 0 || u >= t.vertices {
		writeBadRequest(w, fmt.Sprintf("vertex %d out of range [0, %d)", u, t.vertices))
		return 0, false
	}
	return u, true
}

func (rt *Router) handleTopK(w http.ResponseWriter, r *http.Request) {
	t, ok := rt.ready(w)
	if !ok {
		return
	}
	q := r.URL.Query()
	u, ok := rt.vertexParam(w, q, t)
	if !ok {
		return
	}
	k, err := server.KParam(q, rt.cfg.MaxK)
	if err != nil {
		writeBadRequest(w, err.Error())
		return
	}
	rt.queries.Add(1)
	ctx, cancel := rt.queryCtx(r)
	defer cancel()
	start := time.Now()
	g := rt.getGather()
	defer rt.putGather(g)
	if err := rt.scatter(ctx, t, topkOp{u: u}, g); err != nil {
		rt.writeQueryError(w, err)
		return
	}
	res, st := g.mergeTopK(0, k, t.theta, q.Get("stats") == "1")
	writeJSON(w, http.StatusOK, server.TopKResponse{
		Query:    u,
		Results:  res,
		Stats:    st,
		ElapsedM: float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (rt *Router) handleTopKBatch(w http.ResponseWriter, r *http.Request) {
	t, ok := rt.ready(w)
	if !ok {
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		server.WriteError(w, http.StatusMethodNotAllowed, server.CodeBadRequest, "POST required")
		return
	}
	req, err := server.DecodeBatchRequest(r.Body, rt.cfg.MaxBatch, rt.cfg.MaxK)
	if err != nil {
		writeBadRequest(w, err.Error())
		return
	}
	// A fresh slice per request, never pooled: the op outlives the
	// request when a losing attempt is still encoding it.
	queries := make([]uint32, len(req.Queries))
	for i, u := range req.Queries {
		if u < 0 || u >= t.vertices {
			writeBadRequest(w, fmt.Sprintf("vertex %d out of range [0, %d)", u, t.vertices))
			return
		}
		queries[i] = uint32(u)
	}
	rt.batches.Add(1)
	rt.batchQs.Add(int64(len(req.Queries)))
	for cur := rt.batchMax.Load(); int64(len(req.Queries)) > cur; cur = rt.batchMax.Load() {
		if rt.batchMax.CompareAndSwap(cur, int64(len(req.Queries))) {
			break
		}
	}
	ctx, cancel := rt.queryCtx(r)
	defer cancel()
	start := time.Now()
	g := rt.getGather()
	defer rt.putGather(g)
	if err := rt.scatter(ctx, t, batchOp{queries: queries}, g); err != nil {
		rt.writeQueryError(w, err)
		return
	}
	resp := server.BatchResponse{K: req.K, Results: make([]server.TopKResponse, len(req.Queries))}
	for qi, u := range req.Queries {
		res, st := g.mergeTopK(qi, req.K, t.theta, req.Stats)
		resp.Results[qi] = server.TopKResponse{Query: u, Results: res, Stats: st}
	}
	resp.ElapsedM = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleSimilar(w http.ResponseWriter, r *http.Request) {
	t, ok := rt.ready(w)
	if !ok {
		return
	}
	q := r.URL.Query()
	u, ok := rt.vertexParam(w, q, t)
	if !ok {
		return
	}
	theta, err := server.ThetaParam(q, 0.01)
	if err != nil {
		writeBadRequest(w, err.Error())
		return
	}
	rt.similar.Add(1)
	ctx, cancel := rt.queryCtx(r)
	defer cancel()
	start := time.Now()
	g := rt.getGather()
	defer rt.putGather(g)
	if err := rt.scatter(ctx, t, similarOp{topkOp{u}, theta}, g); err != nil {
		rt.writeQueryError(w, err)
		return
	}
	res, _ := g.mergeTopK(0, 0, theta, false)
	writeJSON(w, http.StatusOK, server.TopKResponse{
		Query:    u,
		Results:  res,
		ElapsedM: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// ShardStatus is one shard's health as seen from the router.
type ShardStatus struct {
	Shard         int    `json:"shard"`
	Addr          string `json:"addr"`
	RequestsTotal int64  `json:"requests_total"`
	// HedgesFired counts extra attempts launched for this shard's
	// ranges — nonzero means the primary was slow or down.
	HedgesFired      int64 `json:"hedges_fired"`
	AttemptErrsTotal int64 `json:"attempt_errors_total"`
	FailuresTotal    int64 `json:"failures_total"`
	// WireFormat is the transport the router prefers for this shard:
	// "bin" (persistent TCP), "bin-http" (Accept-negotiated HTTP), or
	// "json".
	WireFormat string `json:"wire_format"`
	// BytesSent / BytesReceived / EncodeNs / DecodeNs are this shard's
	// router-side wire activity (binary frames plus HTTP payloads).
	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`
	EncodeNs      int64 `json:"encode_ns"`
	DecodeNs      int64 `json:"decode_ns"`
	Reachable     bool  `json:"reachable"`
	// Status is the shard server's own /statusz (counters + cache),
	// absent when the server was unreachable just now.
	Status *server.StatuszResponse `json:"status,omitempty"`
}

// RouterStatusz is the payload of the router's /statusz.
type RouterStatusz struct {
	Ready             bool          `json:"ready"`
	NumShards         int           `json:"num_shards"`
	QueriesTotal      int64         `json:"queries_total"`
	BatchesTotal      int64         `json:"batches_total"`
	BatchQueriesTotal int64         `json:"batch_queries_total"`
	BatchSizeMax      int64         `json:"batch_size_max"`
	SimilarTotal      int64         `json:"similar_total"`
	FailuresTotal     int64         `json:"failures_total"`
	Shards            []ShardStatus `json:"shards"`
}

// handleStatusz reports the router's own counters plus a live view of
// every shard: per-shard hedges/failures/wire activity since start and
// a reachability probe (each shard's /statusz fetched under
// ProbeTimeout) — the place degradation shows up when a shard is slow
// or down.
func (rt *Router) handleStatusz(w http.ResponseWriter, r *http.Request) {
	resp := RouterStatusz{
		NumShards:         len(rt.cfg.Shards),
		QueriesTotal:      rt.queries.Load(),
		BatchesTotal:      rt.batches.Load(),
		BatchQueriesTotal: rt.batchQs.Load(),
		BatchSizeMax:      rt.batchMax.Load(),
		SimilarTotal:      rt.similar.Load(),
		FailuresTotal:     rt.failures.Load(),
	}
	t := rt.top.Load()
	if t != nil {
		resp.Ready = true
		resp.Shards = make([]ShardStatus, len(t.addrs))
		fanout(len(t.addrs), func(i int) {
			sc := &rt.shards[i]
			wf := WireJSON
			if rt.binEnabled() {
				if t.binAddrs[i] != "" {
					wf = WireBin
				} else {
					wf = "bin-http"
				}
			}
			ss := ShardStatus{
				Shard:            i,
				Addr:             t.addrs[i],
				RequestsTotal:    sc.requests.Load(),
				HedgesFired:      sc.hedges.Load(),
				AttemptErrsTotal: sc.attemptErrs.Load(),
				FailuresTotal:    sc.failures.Load(),
				WireFormat:       wf,
				BytesSent:        sc.bytesSent.Load(),
				BytesReceived:    sc.bytesRecv.Load(),
				EncodeNs:         sc.encodeNS.Load(),
				DecodeNs:         sc.decodeNS.Load(),
			}
			pctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProbeTimeout)
			defer cancel()
			status, body, err := rt.get(pctx, t.addrs[i]+"/statusz")
			if err == nil && status == http.StatusOK {
				var st server.StatuszResponse
				if json.Unmarshal(body, &st) == nil {
					ss.Reachable = true
					ss.Status = &st
				}
			}
			resp.Shards[i] = ss
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	if _, ok := rt.ready(w); !ok {
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(payload)
}

func writeBadRequest(w http.ResponseWriter, msg string) {
	server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, msg)
}
