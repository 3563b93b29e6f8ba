package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	simrank "repro"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

// buildIndex builds the shared test index once per process; every
// topology in this file serves shards of the same snapshot, which is
// what the byte-identity tests are about.
func buildIndex(tb testing.TB) *simrank.Index {
	tb.Helper()
	g := simrank.GenerateCollaborationGraph(60, 4, 0.8, 7)
	return simrank.BuildIndex(g, simrank.DefaultOptions())
}

// shardServer is one loopback shard: the HTTP server plus (optionally)
// its binary TCP listener. Close takes down both, so a "down shard"
// test kills every transport the router could reach it on.
type shardServer struct {
	*httptest.Server
	stopBin func()
}

func (s *shardServer) Close() {
	if s.stopBin != nil {
		s.stopBin()
		s.stopBin = nil
	}
	s.Server.Close()
}

// topoOpts shapes a loopback topology beyond the defaults.
type topoOpts struct {
	// noBin leaves out the binary TCP listeners: shard traffic stays on
	// HTTP, binary-negotiated via Accept unless JSON is forced.
	noBin bool
	// slowDelay > 0 makes shard slowShard slow on every transport that
	// can carry a shard request: its /shard/* HTTP handlers and every
	// response written on its binary listener wait that long first.
	slowShard int
	slowDelay time.Duration
	// tamper, when set, rewrites every shard's answers on every transport
	// (answers_test.go).
	tamper tamper
}

// slowListener delays every response written on its connections.
type slowListener struct {
	net.Listener
	delay time.Duration
}

func (l slowListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowConn{c, l.delay}, nil
}

type slowConn struct {
	net.Conn
	delay time.Duration
}

func (c slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// loopback starts shards real HTTP servers (httptest loopback) over one
// index — each with a binary TCP listener, like production — and a
// probed router in front of them.
func loopback(tb testing.TB, idx *simrank.Index, shards int, cfg Config) (*Router, []*shardServer) {
	return loopbackOpts(tb, idx, shards, cfg, topoOpts{})
}

func loopbackOpts(tb testing.TB, idx *simrank.Index, shards int, cfg Config, o topoOpts) (*Router, []*shardServer) {
	tb.Helper()
	servers := make([]*shardServer, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		sh := server.NewShard(idx, i, shards)
		slow := o.slowDelay > 0 && i == o.slowShard
		var h http.Handler = sh
		if slow {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.URL.Path, "/shard/") {
					time.Sleep(o.slowDelay)
				}
				sh.ServeHTTP(w, r)
			})
		}
		if o.tamper != nil {
			h = tamperHandler(h, o.tamper)
		}
		servers[i] = &shardServer{Server: httptest.NewServer(h)}
		if !o.noBin {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				tb.Fatalf("start bin listener: %v", err)
			}
			servers[i].stopBin = func() { ln.Close() }
			if slow {
				ln = slowListener{ln, o.slowDelay}
			}
			if o.tamper != nil {
				ln = tamperListener{ln, o.tamper}
			}
			// ServeBin publishes the address before it accepts, and the
			// probe below reads it from /shardinfo; wait for it.
			go sh.ServeBin(ln)
			for sh.Manifest().BinAddr == "" {
				time.Sleep(time.Millisecond)
			}
		}
		addrs[i] = servers[i].URL
		tb.Cleanup(servers[i].Close)
	}
	cfg.Shards = addrs
	rt := New(cfg)
	if err := rt.Probe(context.Background()); err != nil {
		tb.Fatalf("probe: %v", err)
	}
	return rt, servers
}

func routerGet(tb testing.TB, h http.Handler, path string) (*httptest.ResponseRecorder, []byte) {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec, rec.Body.Bytes()
}

func routerPost(tb testing.TB, h http.Handler, path, body string) (*httptest.ResponseRecorder, []byte) {
	tb.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// diffResults reports the first difference — values or ordering —
// between two result lists. JSON round-trips float64 exactly, so
// equality here is byte-identity of the scores.
func diffResults(got, want []server.ResultJSON) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

func diffScanStats(got, want *simrank.QueryStats) error {
	if got == nil || want == nil {
		return fmt.Errorf("missing stats (got %v, want %v)", got, want)
	}
	if got.Candidates != want.Candidates || got.PrunedByBound != want.PrunedByBound ||
		got.PrunedByRough != want.PrunedByRough || got.Refined != want.Refined {
		return fmt.Errorf("scan stats %+v, want %+v", *got, *want)
	}
	return nil
}

func sameResults(tb testing.TB, label string, got, want []server.ResultJSON) {
	tb.Helper()
	if err := diffResults(got, want); err != nil {
		tb.Fatalf("%s: %v", label, err)
	}
}

func sameScanStats(tb testing.TB, label string, got, want *simrank.QueryStats) {
	tb.Helper()
	if err := diffScanStats(got, want); err != nil {
		tb.Fatalf("%s: %v", label, err)
	}
}

// TestRouterTopKMatchesSingleNode is the e2e golden test: a 3-shard
// loopback topology must answer /topk byte-identically (results,
// ordering, and scan statistics) to a stand-alone server on the same
// snapshot.
func TestRouterTopKMatchesSingleNode(t *testing.T) {
	idx := buildIndex(t)
	rt, _ := loopback(t, idx, 3, Config{})
	single := server.New(idx)
	for _, u := range []int{0, 7, 42, 59, 150} {
		for _, k := range []int{1, 5, 100} {
			path := fmt.Sprintf("/topk?u=%d&k=%d&stats=1", u, k)
			rec, body := routerGet(t, rt, path)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, rec.Code, body)
			}
			var got server.TopKResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			_, sbody := routerGet(t, single, path)
			var want server.TopKResponse
			if err := json.Unmarshal(sbody, &want); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("u=%d k=%d", u, k)
			sameResults(t, label, got.Results, want.Results)
			sameScanStats(t, label, got.Stats, want.Stats)
		}
	}
}

func TestRouterBatchMatchesSingleNode(t *testing.T) {
	idx := buildIndex(t)
	rt, _ := loopback(t, idx, 3, Config{})
	single := server.New(idx)
	body := `{"queries":[0,7,42,59],"k":5,"stats":true}`
	rec, rbody := routerPost(t, rt, "/topk/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rbody)
	}
	var got server.BatchResponse
	if err := json.Unmarshal(rbody, &got); err != nil {
		t.Fatal(err)
	}
	_, sbody := routerPost(t, single, "/topk/batch", body)
	var want server.BatchResponse
	if err := json.Unmarshal(sbody, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d batch results, want %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		label := fmt.Sprintf("batch query %d", got.Results[i].Query)
		sameResults(t, label, got.Results[i].Results, want.Results[i].Results)
		sameScanStats(t, label, got.Results[i].Stats, want.Results[i].Stats)
	}
}

// TestRouterSimilarMatchesSingleNode: routed /similar is byte-identical
// to single-node /similar (elapsed_ms aside) on 1, 2 and 3 shards, over
// the binary TCP wire and over forced JSON, at thetas below, at and above
// the serving theta of 0.01 — a shard that scanned at its own theta
// instead of the query's would differ below it.
func TestRouterSimilarMatchesSingleNode(t *testing.T) {
	idx := buildIndex(t)
	if idx.Threshold() != 0.01 {
		t.Fatalf("serving theta %g, the theta set below is chosen around 0.01", idx.Threshold())
	}
	single := server.New(idx)
	for shards := 1; shards <= 3; shards++ {
		for _, wf := range []string{WireBin, WireJSON} {
			rt, _ := loopback(t, idx, shards, Config{Wire: wf})
			for _, theta := range []string{"0.005", "0.01", "0.05", "1"} {
				for _, u := range []int{0, 5, 42, 100} {
					path := fmt.Sprintf("/similar?u=%d&theta=%s", u, theta)
					rec, body := routerGet(t, rt, path)
					if rec.Code != http.StatusOK {
						t.Fatalf("%d shards %s %s: status %d: %s", shards, wf, path, rec.Code, body)
					}
					_, want := routerGet(t, single, path)
					got, want := elapsedRE.ReplaceAll(body, nil), elapsedRE.ReplaceAll(want, nil)
					if !bytes.Equal(got, want) {
						t.Fatalf("%d shards %s %s:\n got  %s\n want %s", shards, wf, path, got, want)
					}
				}
			}
		}
	}
}

// TestRouterDownShardFailover kills one shard server outright: the
// router must fail over its range to the next server (every server
// holds the full snapshot) and still answer byte-identically, and
// /statusz must report the degradation.
func TestRouterDownShardFailover(t *testing.T) {
	idx := buildIndex(t)
	rt, servers := loopback(t, idx, 3, Config{QueryTimeout: 10 * time.Second})
	single := server.New(idx)
	servers[1].Close()

	path := "/topk?u=42&k=5&stats=1"
	rec, body := routerGet(t, rt, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d with shard 1 down: %s", rec.Code, body)
	}
	var got, want server.TopKResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	_, sbody := routerGet(t, single, path)
	if err := json.Unmarshal(sbody, &want); err != nil {
		t.Fatal(err)
	}
	sameResults(t, "failover", got.Results, want.Results)
	sameScanStats(t, "failover", got.Stats, want.Stats)

	rec, body = routerGet(t, rt, "/statusz")
	if rec.Code != http.StatusOK {
		t.Fatalf("statusz status %d", rec.Code)
	}
	var st RouterStatusz
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || len(st.Shards) != 3 {
		t.Fatalf("statusz = %+v", st)
	}
	s1 := st.Shards[1]
	if s1.HedgesFired == 0 || s1.AttemptErrsTotal == 0 {
		t.Fatalf("down shard not visible in statusz: %+v", s1)
	}
	// The dead server never got a request frame (the dial failed) and an
	// HTTP GET has no body, so encoded request bytes for shard 1 can only
	// come from the failed-over attempt — and only if it went over TCP.
	if s1.EncodeNs == 0 || s1.BytesSent == 0 {
		t.Fatalf("failed-over attempt did not use the surviving server's TCP listener: %+v", s1)
	}
	if s1.Reachable {
		t.Fatalf("closed shard reported reachable: %+v", s1)
	}
	if !st.Shards[0].Reachable || !st.Shards[2].Reachable {
		t.Fatalf("live shards reported unreachable: %+v", st.Shards)
	}
}

// TestRouterSlowShardHedges makes one shard artificially slow on
// whichever transport carries its requests: in every wire mode the hedge
// to the next server must win within the query timeout, travel over the
// same transport, and leave the answer byte-identical.
func TestRouterSlowShardHedges(t *testing.T) {
	idx := buildIndex(t)
	single := server.New(idx)
	const slowDelay = 300 * time.Millisecond
	for _, m := range []struct {
		name  string
		wire  string
		noBin bool
	}{{"tcp-bin", WireBin, false}, {"http-bin", WireBin, true}, {"json", WireJSON, false}} {
		t.Run(m.name, func(t *testing.T) {
			rt, _ := loopbackOpts(t, idx, 3, Config{
				HedgeDelay:   5 * time.Millisecond,
				QueryTimeout: 5 * time.Second,
				Wire:         m.wire,
			}, topoOpts{noBin: m.noBin, slowShard: 2, slowDelay: slowDelay})

			path := "/topk?u=7&k=5&stats=1"
			start := time.Now()
			rec, body := routerGet(t, rt, path)
			elapsed := time.Since(start)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, body)
			}
			var got, want server.TopKResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			_, sbody := routerGet(t, single, path)
			if err := json.Unmarshal(sbody, &want); err != nil {
				t.Fatal(err)
			}
			sameResults(t, "hedged", got.Results, want.Results)
			sameScanStats(t, "hedged", got.Stats, want.Stats)
			if elapsed >= slowDelay {
				t.Fatalf("hedge did not win: query took %v (slow shard waits %v)", elapsed, slowDelay)
			}

			_, body = routerGet(t, rt, "/statusz")
			var st RouterStatusz
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			s2 := st.Shards[2]
			if s2.HedgesFired == 0 {
				t.Fatalf("no hedge recorded for the slow shard: %+v", s2)
			}
			// Only the TCP transport encodes a request frame for a topk.
			if tcp := m.name == "tcp-bin"; (s2.EncodeNs > 0) != tcp {
				t.Fatalf("encode_ns = %d, want > 0 exactly on tcp-bin: %+v", s2.EncodeNs, s2)
			}
		})
	}
}

// diffAnswer is diffResults plus, when the oracle has them, diffScanStats.
func diffAnswer(got, want server.TopKResponse) error {
	if err := diffResults(got.Results, want.Results); err != nil || want.Stats == nil {
		return err
	}
	return diffScanStats(got.Stats, want.Stats)
}

// TestRouterHedgeRaceHammer races two attempts on nearly every shard
// call (1µs hedge delay) over the TCP transport, from several client
// goroutines at once, and checks every answer against the single-node
// oracle. Run under -race it is the proof of the reply ownership rule:
// a losing attempt that could write into anything a gather reads — a
// shared decode slot, a recycled reply — shows up as a data race or a
// wrong answer.
func TestRouterHedgeRaceHammer(t *testing.T) {
	idx := buildIndex(t)
	rt, _ := loopback(t, idx, 3, Config{HedgeDelay: time.Microsecond, QueryTimeout: 10 * time.Second})
	single := server.New(idx)

	type probe struct {
		path, body string // body != "" means POST
		want       []server.TopKResponse
	}
	var probes []probe
	for _, u := range []int{0, 7, 42, 59, 150} {
		probes = append(probes,
			probe{path: fmt.Sprintf("/topk?u=%d&k=10&stats=1", u)},
			probe{path: fmt.Sprintf("/similar?u=%d&theta=0.02", u)})
	}
	probes = append(probes,
		probe{path: "/topk/batch", body: `{"queries":[0,7,42,59],"k":5,"stats":true}`},
		probe{path: "/topk/batch", body: `{"queries":[150,3,3,9,21],"k":20,"stats":true}`})
	ask := func(h http.Handler, p probe) ([]server.TopKResponse, error) {
		rec := httptest.NewRecorder()
		if p.body == "" {
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p.path, nil))
		} else {
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, p.path, strings.NewReader(p.body)))
		}
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if p.body == "" {
			var one server.TopKResponse
			err := json.Unmarshal(rec.Body.Bytes(), &one)
			return []server.TopKResponse{one}, err
		}
		var br server.BatchResponse
		err := json.Unmarshal(rec.Body.Bytes(), &br)
		return br.Results, err
	}
	for i := range probes {
		want, err := ask(single, probes[i])
		if err != nil {
			t.Fatalf("oracle %s: %v", probes[i].path, err)
		}
		probes[i].want = want
	}

	const (
		clients = 4
		rounds  = 6 // x len(probes) requests per client
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds*len(probes); i++ {
				p := probes[(c+i)%len(probes)]
				got, err := ask(rt, p)
				if err == nil && len(got) != len(p.want) {
					err = fmt.Errorf("%d answers, want %d", len(got), len(p.want))
				}
				for qi := 0; err == nil && qi < len(got); qi++ {
					err = diffAnswer(got[qi], p.want[qi])
				}
				if err != nil {
					t.Errorf("client %d request %d %s %s: %v", c, i, p.path, p.body, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	_, body := routerGet(t, rt, "/statusz")
	var st RouterStatusz
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for _, s := range st.Shards {
		if s.HedgesFired == 0 || s.EncodeNs == 0 {
			t.Fatalf("shard %d saw no hedged TCP attempts: %+v", s.Shard, s)
		}
		if s.FailuresTotal != 0 {
			t.Fatalf("shard %d: %d calls failed outright", s.Shard, s.FailuresTotal)
		}
	}
	// Losers close their connections instead of repooling them; what is
	// left idle must respect the per-address cap.
	rt.binMu.Lock()
	defer rt.binMu.Unlock()
	for addr, p := range rt.binPools {
		p.mu.Lock()
		if len(p.free) > maxIdleBinConns {
			t.Errorf("pool %s holds %d idle connections, cap %d", addr, len(p.free), maxIdleBinConns)
		}
		p.mu.Unlock()
	}
}

func TestRouterNotReady(t *testing.T) {
	rt := New(Config{Shards: []string{"http://127.0.0.1:1"}})
	for _, path := range []string{"/topk?u=0", "/similar?u=0", "/readyz"} {
		rec, body := routerGet(t, rt, path)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d before probe", path, rec.Code)
		}
		if path == "/readyz" {
			continue
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Code != server.CodeNotReady {
			t.Fatalf("%s: code %q", path, er.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: no Retry-After", path)
		}
	}
	// /statusz answers even before probe, reporting not ready.
	rec, body := routerGet(t, rt, "/statusz")
	if rec.Code != http.StatusOK {
		t.Fatalf("statusz status %d", rec.Code)
	}
	var st RouterStatusz
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Ready {
		t.Fatal("unprobed router claims ready")
	}
}

// TestRouterProbeRejectsMismatch: servers built from different seeds
// must not form a topology — the params fingerprint differs.
func TestRouterProbeRejectsMismatch(t *testing.T) {
	g := simrank.GenerateCollaborationGraph(60, 4, 0.8, 7)
	opts := simrank.DefaultOptions()
	idxA := simrank.BuildIndex(g, opts)
	opts.Seed = 2
	idxB := simrank.BuildIndex(g, opts)

	sa := httptest.NewServer(server.NewShard(idxA, 0, 2))
	sb := httptest.NewServer(server.NewShard(idxB, 1, 2))
	defer sa.Close()
	defer sb.Close()
	rt := New(Config{Shards: []string{sa.URL, sb.URL}})
	if err := rt.Probe(context.Background()); err == nil {
		t.Fatal("probe accepted mismatched seeds")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("unexpected probe error: %v", err)
	}
}

// The params fingerprints the binaries of earlier plan definitions
// (core.Params.Fingerprint) publish for DefaultOptions. Before definition 2
// an index-strategy shard bound a candidate by min(distance bound, β, L2),
// since then by L2 alone, and the merge replays the scan order from the
// bounds the shards ship. Before definition 3 a shard scored against all T
// steps of the query-side distribution, since then up to its horizon: its
// scores are up to c^T·maxD higher and its rough verdicts were taken on
// them.
const (
	planDef1ParamsFP = 0xa50eb6893a9430f1
	planDef2ParamsFP = 0x35b3c11a4138e135
)

// A shard still running such a binary and one running this one agree on
// graph, seed and every parameter, and must still not form a topology.
func TestRouterProbeRejectsOlderPlanDefinition(t *testing.T) {
	g := simrank.GenerateCollaborationGraph(60, 4, 0.8, 7)
	idx := simrank.BuildIndex(g, simrank.DefaultOptions())
	for _, olderFP := range []uint64{planDef1ParamsFP, planDef2ParamsFP} {
		if _, fp := idx.ServingFingerprint(); fp == olderFP {
			t.Fatalf("the params fingerprint of DefaultOptions is still %#x", fp)
		}
		current := server.NewShard(idx, 1, 2)
		inner := server.NewShard(idx, 0, 2)
		older := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/shardinfo" {
				inner.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			var m shard.Manifest
			if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
				t.Error(err)
			}
			m.ParamsFP = olderFP
			if err := json.NewEncoder(w).Encode(m); err != nil {
				t.Error(err)
			}
		})
		sa, sb := httptest.NewServer(older), httptest.NewServer(current)
		t.Cleanup(sa.Close)
		t.Cleanup(sb.Close)
		rt := New(Config{Shards: []string{sa.URL, sb.URL}})
		err := rt.Probe(context.Background())
		if err == nil || !strings.Contains(err.Error(), "params fingerprint mismatch") {
			t.Fatalf("probe of a topology mixed with %#x: %v", olderFP, err)
		}
		if rec, _ := routerGet(t, rt, "/topk?u=5&k=5"); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("the refused topology serves /topk with status %d", rec.Code)
		}
	}
}

// TestRouterProbeRejectsOtherWireVersion: a shard advertising wire
// version 1 answers /shard/similar with a ranked list, which this router
// would read as an empty fragment; the probe refuses it and says why.
func TestRouterProbeRejectsOtherWireVersion(t *testing.T) {
	idx := buildIndex(t)
	inner := server.NewShard(idx, 0, 2)
	older := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/shardinfo" {
			inner.ServeHTTP(w, r)
			return
		}
		m := inner.Manifest()
		m.Version = 1
		if err := json.NewEncoder(w).Encode(m); err != nil {
			t.Error(err)
		}
	})
	sa, sb := httptest.NewServer(older), httptest.NewServer(server.NewShard(idx, 1, 2))
	t.Cleanup(sa.Close)
	t.Cleanup(sb.Close)
	rt := New(Config{Shards: []string{sa.URL, sb.URL}})
	err := rt.Probe(context.Background())
	if want := fmt.Sprintf("wire version 1, this router %d", wire.Version); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("probe of a version-1 shard: %v", err)
	}
	if rec, _ := routerGet(t, rt, "/similar?u=5"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("the refused topology serves /similar with status %d", rec.Code)
	}
}

func TestRouterValidation(t *testing.T) {
	idx := buildIndex(t)
	rt, _ := loopback(t, idx, 2, Config{})
	for _, path := range []string{
		"/topk?u=notanint",
		"/topk?u=99999", // out of range, rejected locally
		"/topk?u=0&k=0", // k out of range
		"/similar?u=0&theta=7",
	} {
		rec, body := routerGet(t, rt, path)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", path, rec.Code, body)
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: error body not JSON: %s", path, body)
		}
		if er.Code != server.CodeBadRequest {
			t.Fatalf("%s: code %q", path, er.Code)
		}
	}
	rec, _ := routerPost(t, rt, "/topk/batch", `{"queries":[]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", rec.Code)
	}
}

// TestRouterWireModesIdentical drives the same queries through all
// three shard transports — persistent binary TCP, Accept-negotiated
// binary HTTP, and forced JSON — and requires identical results and
// scan statistics from every mode and from a stand-alone server. The
// binary codec ships raw float64 bit patterns and JSON round-trips
// float64 exactly, so equality here is bit-identity of the scores.
func TestRouterWireModesIdentical(t *testing.T) {
	idx := buildIndex(t)
	single := server.New(idx)
	rtBin, _ := loopback(t, idx, 3, Config{})
	rtHTTP, _ := loopbackOpts(t, idx, 3, Config{}, topoOpts{noBin: true})
	rtJSON, _ := loopback(t, idx, 3, Config{Wire: WireJSON})
	modes := []struct {
		name string
		h    http.Handler
	}{{"tcp-bin", rtBin}, {"http-bin", rtHTTP}, {"json", rtJSON}}

	for _, path := range []string{
		"/topk?u=42&k=20&stats=1",
		"/topk?u=0&k=5&stats=1",
		"/topk?u=150&k=100&stats=1",
		"/similar?u=42&theta=0.02",
	} {
		_, sbody := routerGet(t, single, path)
		var want server.TopKResponse
		if err := json.Unmarshal(sbody, &want); err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			rec, body := routerGet(t, m.h, path)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", m.name, path, rec.Code, body)
			}
			var got server.TopKResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			label := m.name + " " + path
			sameResults(t, label, got.Results, want.Results)
			if want.Stats != nil {
				sameScanStats(t, label, got.Stats, want.Stats)
			}
		}
	}

	batch := `{"queries":[0,7,42,59],"k":5,"stats":true}`
	_, sbody := routerPost(t, single, "/topk/batch", batch)
	var want server.BatchResponse
	if err := json.Unmarshal(sbody, &want); err != nil {
		t.Fatal(err)
	}
	for _, m := range modes {
		rec, body := routerPost(t, m.h, "/topk/batch", batch)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s batch: status %d: %s", m.name, rec.Code, body)
		}
		var got server.BatchResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("%s batch: %d results, want %d", m.name, len(got.Results), len(want.Results))
		}
		for i := range got.Results {
			label := fmt.Sprintf("%s batch query %d", m.name, got.Results[i].Query)
			sameResults(t, label, got.Results[i].Results, want.Results[i].Results)
			sameScanStats(t, label, got.Results[i].Stats, want.Results[i].Stats)
		}
	}

	// /statusz reports which transport each shard is on.
	for _, m := range modes {
		_, body := routerGet(t, m.h, "/statusz")
		var st RouterStatusz
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		wantWF := map[string]string{"tcp-bin": WireBin, "http-bin": "bin-http", "json": WireJSON}[m.name]
		for _, s := range st.Shards {
			if s.WireFormat != wantWF {
				t.Fatalf("%s: shard %d wire_format %q, want %q", m.name, s.Shard, s.WireFormat, wantWF)
			}
			if s.BytesReceived == 0 {
				t.Fatalf("%s: shard %d reports zero bytes received", m.name, s.Shard)
			}
		}
	}
}

// BenchmarkRouterTopK measures a routed /topk over a real 3-shard HTTP
// loopback topology — scatter, shard-side scoring, gather, merge replay.
func BenchmarkRouterTopK(b *testing.B) {
	idx := buildIndex(b)
	rt, _ := loopback(b, idx, 3, Config{})
	req := httptest.NewRequest(http.MethodGet, "/topk?u=42&k=20", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkRouterTopKBatch measures a routed 4-query batch over the
// same topology — one scatter round-trip amortized across the batch.
func BenchmarkRouterTopKBatch(b *testing.B) {
	idx := buildIndex(b)
	rt, _ := loopback(b, idx, 3, Config{})
	body := `{"queries":[0,7,42,59],"k":10}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/topk/batch", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// TestRouterNewKeepsCallerShards: New trims trailing slashes off its own
// copy of the shard list; the caller's Config.Shards is left as given.
func TestRouterNewKeepsCallerShards(t *testing.T) {
	shards := []string{"http://127.0.0.1:1/", "http://127.0.0.1:2//"}
	New(Config{Shards: shards})
	if shards[0] != "http://127.0.0.1:1/" || shards[1] != "http://127.0.0.1:2//" {
		t.Fatalf("New rewrote the caller's shard list: %q", shards)
	}
}

// TestRouterTopKAllocs bounds the heap allocations of one routed /topk
// over the loopback 3-shard topology on the binary TCP wire: router,
// wire codec and the in-process shards together, counted by the
// allocator, so it gates on any machine however noisy its clock. The
// bound is twice the 67 allocations measured when the test was written
// (go1.24 linux/amd64, 2 vCPUs; 105 under -race).
func TestRouterTopKAllocs(t *testing.T) {
	rt, _ := loopback(t, buildIndex(t), 3, Config{})
	req := httptest.NewRequest(http.MethodGet, "/topk?u=42&k=20", nil)
	allocs := testing.AllocsPerRun(50, func() {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	const bound = 2 * 67
	if allocs > bound {
		t.Fatalf("%.1f allocations per routed /topk, over the bound of %d", allocs, bound)
	}
}
