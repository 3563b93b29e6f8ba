package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	simrank "repro"
)

func testHandler(t *testing.T) *Handler {
	t.Helper()
	g := simrank.GenerateCollaborationGraph(50, 4, 0.8, 7)
	idx := simrank.BuildIndex(g, simrank.DefaultOptions())
	return New(idx)
}

func get(t *testing.T, h http.Handler, url string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestTopKEndpoint(t *testing.T) {
	h := testHandler(t)
	rec, body := get(t, h, "/topk?u=0&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp TopKResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Query != 0 || len(resp.Results) > 5 {
		t.Fatalf("resp = %+v", resp)
	}
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i].Score > resp.Results[i-1].Score {
			t.Fatal("unsorted results")
		}
	}
}

func TestTopKStatsParam(t *testing.T) {
	h := testHandler(t)
	rec, body := get(t, h, "/topk?u=0&k=5&stats=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp TopKResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil {
		t.Fatal("stats=1 returned no stats")
	}
	if resp.Stats.Refined+resp.Stats.PrunedByRough+resp.Stats.PrunedByBound > resp.Stats.Candidates {
		t.Fatalf("inconsistent stats: %+v", *resp.Stats)
	}
	// Results must match the stats-free path (same seed, same query).
	_, plain := get(t, h, "/topk?u=0&k=5")
	var base TopKResponse
	if err := json.Unmarshal(plain, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Results) != len(resp.Results) {
		t.Fatalf("stats param changed results: %d vs %d", len(base.Results), len(resp.Results))
	}
	for i := range base.Results {
		if base.Results[i] != resp.Results[i] {
			t.Fatalf("stats param changed result %d", i)
		}
	}
	// Without stats=1 the field stays absent.
	if base.Stats != nil {
		t.Fatal("stats returned without stats=1")
	}
}

func TestTopKDefaultsAndValidation(t *testing.T) {
	h := testHandler(t)
	// Default k.
	rec, _ := get(t, h, "/topk?u=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("default k status %d", rec.Code)
	}
	cases := []string{
		"/topk",                // missing u
		"/topk?u=abc",          // non-integer
		"/topk?u=0&k=0",        // k out of range
		"/topk?u=0&k=99999999", // k over cap
		"/topk?u=100000",       // vertex out of range
	}
	for _, url := range cases {
		rec, body := get(t, h, url)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d", url, rec.Code)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Fatalf("%s: bad error payload %s", url, body)
		}
	}
}

func TestPairEndpoint(t *testing.T) {
	h := testHandler(t)
	rec, body := get(t, h, "/pair?u=1&v=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp PairResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Score != 1 {
		t.Fatalf("self pair score %v", resp.Score)
	}
	if rec, _ := get(t, h, "/pair?u=1"); rec.Code != http.StatusBadRequest {
		t.Fatal("missing v accepted")
	}
}

func TestSimilarEndpoint(t *testing.T) {
	h := testHandler(t)
	rec, body := get(t, h, "/similar?u=0&theta=0.05")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp TopKResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for _, r := range resp.Results {
		if r.Score < 0.05 {
			t.Fatalf("result below theta: %+v", r)
		}
	}
	for _, url := range []string{"/similar?u=0&theta=0", "/similar?u=0&theta=2", "/similar?u=0&theta=x"} {
		if rec, _ := get(t, h, url); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s accepted", url)
		}
	}
}

func TestJoinEndpoint(t *testing.T) {
	h := testHandler(t)
	rec, body := get(t, h, "/join?theta=0.05&max=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp JoinResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Pairs) > 10 {
		t.Fatalf("max ignored: %d pairs", len(resp.Pairs))
	}
	for _, p := range resp.Pairs {
		if p.U >= p.V || p.Score < 0.05 {
			t.Fatalf("bad pair %+v", p)
		}
	}
	for _, url := range []string{"/join?theta=0", "/join?theta=boo", "/join?max=0", "/join?max=1000000"} {
		if rec, _ := get(t, h, url); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s accepted", url)
		}
	}
}

func TestStatsAndHealth(t *testing.T) {
	h := testHandler(t)
	rec, body := get(t, h, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Vertices == 0 || st.Edges == 0 || st.IndexBytes != h.idx.Stats().IndexBytes {
		t.Fatalf("stats = %+v", st)
	}
	rec, _ = get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatal("health check failed")
	}
	rec, _ = get(t, h, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatal("readiness check failed")
	}
}

func TestRequestContextCancellation(t *testing.T) {
	h := testHandler(t)
	// A request whose context is already cancelled must be rejected with
	// 503 (the query was cut short), not 400 (malformed) or 200.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, url := range []string{"/topk?u=0&k=5", "/pair?u=1&v=2", "/similar?u=0&theta=0.05", "/join?theta=0.05&max=10"} {
		req := httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s with cancelled context: status %d, want 503 (%s)", url, rec.Code, rec.Body.String())
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Fatalf("%s: bad error payload %s", url, rec.Body.String())
		}
	}
	// Health and readiness ignore the query machinery entirely.
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz with cancelled context: status %d", rec.Code)
	}
}

func TestQueryTimeout(t *testing.T) {
	h := testHandler(t)
	// An expired deadline surfaces as a timeout 503. QueryTimeout so small
	// the deadline has passed before the search's first context check.
	h.QueryTimeout = time.Nanosecond
	rec, body := get(t, h, "/topk?u=0&k=5")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", rec.Code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error != "query timed out" {
		t.Fatalf("error payload %s", body)
	}
	// A generous timeout changes nothing.
	h.QueryTimeout = time.Minute
	if rec, body := get(t, h, "/topk?u=0&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("status %d with generous timeout (%s)", rec.Code, body)
	}
}

// goneAfter is a request context whose client goes away after n checks:
// Err is nil for its first n calls and context.Canceled from then on.
type goneAfter struct {
	context.Context
	n int
}

func (c *goneAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestDisconnectStopsLinearRow: under the default scorer a query's work is
// computing its row, and a client that goes away stops it between the
// backward pass's levels, so the cancelled answer comes back well before
// the row would have been done. θ = 1e-9 prunes nothing: the longest row a
// /similar can ask for.
func TestDisconnectStopsLinearRow(t *testing.T) {
	g := simrank.GenerateSocialGraph(40000, 10, 0.4, 3)
	idx := simrank.BuildIndex(g, simrank.DefaultOptions())
	h := New(idx)
	row := func() time.Duration {
		start := time.Now()
		if _, err := idx.SimilarCtx(context.Background(), 0, 1e-9); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	full := min(row(), row())
	// The client goes away once the query has passed its check on entry:
	// the next check is the backward pass's first level.
	req := httptest.NewRequest(http.MethodGet, "/similar?u=0&theta=1e-9", nil)
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req.WithContext(&goneAfter{context.Background(), 1}))
	cut := time.Since(start)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), CodeCancelled) {
		t.Fatalf("status %d, want 503 %s (%s)", rec.Code, CodeCancelled, rec.Body)
	}
	t.Logf("the row takes %v; the cancelled query answered after %v", full, cut)
	if cut > full/2 {
		t.Fatalf("cancelled query answered after %v, the whole row takes %v", cut, full)
	}
}

func TestConcurrentRequests(t *testing.T) {
	h := testHandler(t)
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/topk?u=0&k=5", nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				errs <- rec.Body.String()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("concurrent request failed: %s", e)
	}
}

func postJSON(t *testing.T, h http.Handler, url, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// cachedHandler builds a handler over an index with the cross-query cache
// on (the row cache, under the default strategy), so batch responses
// exercise the cache counters.
func cachedHandler(t *testing.T) *Handler {
	t.Helper()
	return cachedHandlerWith(t, simrank.StrategyLinear)
}

// cachedHandlerWith is cachedHandler under the given strategy.
func cachedHandlerWith(t *testing.T, s simrank.Strategy) *Handler {
	t.Helper()
	g := simrank.GenerateCollaborationGraph(50, 4, 0.8, 7)
	opts := simrank.DefaultOptions()
	opts.CacheBytes = 1 << 22
	opts.Strategy = s
	return New(simrank.BuildIndex(g, opts))
}

func TestTopKBatchEndpoint(t *testing.T) {
	h := cachedHandler(t)
	rec, body := postJSON(t, h, "/topk/batch", `{"queries":[0,7,7,42],"k":5}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.K != 5 || len(resp.Results) != 4 {
		t.Fatalf("resp k=%d results=%d, want 5 and 4", resp.K, len(resp.Results))
	}
	if resp.Cache != nil {
		t.Fatal("cache reported without stats=true")
	}
	// Per-query payloads must match the singleton endpoint exactly.
	for i, u := range []int{0, 7, 7, 42} {
		if resp.Results[i].Query != u {
			t.Fatalf("result %d answers query %d, want %d", i, resp.Results[i].Query, u)
		}
		_, single := get(t, h, fmt.Sprintf("/topk?u=%d&k=5", u))
		var want TopKResponse
		if err := json.Unmarshal(single, &want); err != nil {
			t.Fatal(err)
		}
		if len(want.Results) != len(resp.Results[i].Results) {
			t.Fatalf("query %d: batch %d results vs single %d", u, len(resp.Results[i].Results), len(want.Results))
		}
		for j := range want.Results {
			if want.Results[j] != resp.Results[i].Results[j] {
				t.Fatalf("query %d result %d: batch %+v vs single %+v", u, j, resp.Results[i].Results[j], want.Results[j])
			}
		}
	}
}

func TestTopKBatchStats(t *testing.T) {
	h := cachedHandler(t)
	// Warm the cache, then ask for stats: the repeated queries must show
	// cache activity and the batch-wide cache block must be present.
	postJSON(t, h, "/topk/batch", `{"queries":[0,1,2,3],"k":5}`)
	rec, body := postJSON(t, h, "/topk/batch", `{"queries":[0,1,2,3],"k":5,"stats":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, r := range resp.Results {
		if r.Stats == nil {
			t.Fatalf("result %d missing stats", i)
		}
		hits += r.Stats.CacheHits
	}
	if hits == 0 {
		t.Fatal("warm repeat batch recorded no cache hits")
	}
	if resp.Cache == nil || resp.Cache.Hits == 0 || resp.Cache.Entries == 0 {
		t.Fatalf("implausible batch cache block: %+v", resp.Cache)
	}
	if resp.Cache.BytesInUse <= 0 || resp.Cache.BytesInUse > resp.Cache.BudgetBytes {
		t.Fatalf("cache bytes out of budget: %+v", resp.Cache)
	}
}

func TestTopKBatchValidation(t *testing.T) {
	h := testHandler(t)
	if rec, body := get(t, h, "/topk/batch"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d: %s", rec.Code, body)
	} else if rec.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", rec.Header().Get("Allow"))
	}
	for _, tc := range []struct{ name, body string }{
		{"bad json", `{"queries":`},
		{"empty", `{"queries":[],"k":5}`},
		{"bad vertex", `{"queries":[0,5000],"k":5}`},
		{"bad k", `{"queries":[0],"k":-3}`},
	} {
		rec, body := postJSON(t, h, "/topk/batch", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", tc.name, rec.Code, body)
		}
	}
	h.MaxBatch = 2
	if rec, body := postJSON(t, h, "/topk/batch", `{"queries":[0,1,2],"k":5}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("oversize batch status %d: %s", rec.Code, body)
	}
}

func TestTopKStatsIncludesCache(t *testing.T) {
	h := cachedHandler(t)
	get(t, h, "/topk?u=0&k=5") // cold pass populates
	rec, body := get(t, h, "/topk?u=0&k=5&stats=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp TopKResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil || resp.Cache == nil {
		t.Fatalf("stats=1 missing stats or cache block: %s", body)
	}
	if resp.Cache.Misses == 0 {
		t.Fatalf("cache block shows no activity after two queries: %+v", resp.Cache)
	}
}
