package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	simrank "repro"
	"repro/internal/wire"
)

// answer is one transport's reply to a shard request, normalised so
// replies from different transports compare with reflect.DeepEqual:
// the error contract (status + stable code), or the payload the merge
// would read — fragments and stats per query.
type answer struct {
	status int
	code   string
	frags  [][]simrank.ShardCand
	stats  []simrank.QueryStats
}

// answerFromJSON lowers a JSON shard response (or error body).
func answerFromJSON(t *testing.T, kind uint8, status int, body []byte) answer {
	t.Helper()
	if status != http.StatusOK {
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("error body not JSON: %s", body)
		}
		return answer{status: status, code: er.Code}
	}
	a := answer{status: status}
	if kind == wire.MsgBatchReq {
		var r ShardBatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		for _, q := range r.Results {
			a.frags, a.stats = append(a.frags, q.Frag), append(a.stats, *q.Stats)
		}
		return a
	}
	var r ShardTopKResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	a.frags, a.stats = [][]simrank.ShardCand{r.Frag}, []simrank.QueryStats{*r.Stats}
	return a
}

// answerFromFrame lowers a response frame (or MsgError frame).
func answerFromFrame(t *testing.T, kind uint8, data []byte) answer {
	t.Helper()
	var f wire.Frame
	if err := f.Parse(data); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	a := answer{status: http.StatusOK}
	var err error
	switch {
	case f.Type == wire.MsgError:
		var we *wire.Error
		if !errors.As(f.Err(), &we) {
			t.Fatalf("bad error frame: %v", f.Err())
		}
		return answer{status: we.Status, code: we.Code}
	case kind == wire.MsgBatchReq:
		var r wire.BatchResp
		err = f.BatchResp(&r)
		a.frags, a.stats = r.Frags, r.Stats
	default:
		var r wire.TopKResp
		err = f.TopKResp(&r)
		a.frags, a.stats = [][]simrank.ShardCand{r.Frag}, []simrank.QueryStats{r.Stats}
	}
	if err != nil {
		t.Fatalf("decode response frame: %v", err)
	}
	return a
}

// normalise makes empty and nil slices compare equal.
func (a answer) normalise() answer {
	for i, f := range a.frags {
		if len(f) == 0 {
			a.frags[i] = nil
		}
	}
	return a
}

func (r shardReq) frame() []byte {
	switch r.kind {
	case wire.MsgTopKReq:
		return wire.AppendTopKReq(nil, wire.TopKReq{U: uint32(r.u), Lo: uint32(r.lo), Hi: uint32(r.hi)})
	case wire.MsgBatchReq:
		return wire.AppendBatchReq(nil, &wire.BatchReq{Lo: uint32(r.lo), Hi: uint32(r.hi), Queries: r.queries})
	}
	return wire.AppendSimilarReq(nil, wire.SimilarReq{U: uint32(r.u), Lo: uint32(r.lo), Hi: uint32(r.hi), Theta: r.theta})
}

// httpRequest builds the HTTP form of r: query string for topk and
// similar, a JSON or frame body for batch.
func (r shardReq) httpRequest(binBody, binResp bool) *http.Request {
	var req *http.Request
	rng := fmt.Sprintf("&lo=%d&hi=%d", r.lo, r.hi)
	switch {
	case r.kind == wire.MsgTopKReq:
		req = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/shard/topk?u=%d", r.u)+rng, nil)
	case r.kind == wire.MsgSimilarReq:
		theta := strconv.FormatFloat(r.theta, 'g', -1, 64)
		req = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/shard/similar?u=%d&theta=%s", r.u, theta)+rng, nil)
	case binBody:
		req = httptest.NewRequest(http.MethodPost, "/shard/topk/batch", bytes.NewReader(r.frame()))
		req.Header.Set("Content-Type", wire.ContentType)
	default:
		qs := r.queries
		if qs == nil {
			qs = []uint32{}
		}
		body, _ := json.Marshal(ShardBatchRequest{Queries: qs, Lo: &r.lo, Hi: &r.hi})
		req = httptest.NewRequest(http.MethodPost, "/shard/topk/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	if binResp {
		req.Header.Set("Accept", wire.ContentType)
	}
	return req
}

// shardTransports are the ways a shard request reaches a handler. ctx is
// the request context; the TCP transport has none of its own, so a
// non-nil ctx there stands in for the connection's (a peer that is
// already gone) by driving serveBinFrame over an in-memory pipe.
var shardTransports = []struct {
	name string
	do   func(t *testing.T, h *Handler, conn *tcpClient, ctx context.Context, r shardReq) answer
}{
	{"json-http", func(t *testing.T, h *Handler, _ *tcpClient, ctx context.Context, r shardReq) answer {
		return doHTTP(t, h, ctx, r, false, false)
	}},
	{"bin-http", func(t *testing.T, h *Handler, _ *tcpClient, ctx context.Context, r shardReq) answer {
		return doHTTP(t, h, ctx, r, true, true)
	}},
	// A frame body answered in JSON: what a router that cannot decode
	// frames but can send them would see; only batch has a body.
	{"bin-body-json-resp", func(t *testing.T, h *Handler, _ *tcpClient, ctx context.Context, r shardReq) answer {
		return doHTTP(t, h, ctx, r, true, false)
	}},
	{"tcp", func(t *testing.T, h *Handler, conn *tcpClient, ctx context.Context, r shardReq) answer {
		if ctx == nil {
			return answerFromFrame(t, r.kind, conn.exchange(t, r.frame()))
		}
		client, srv := net.Pipe()
		defer client.Close()
		go func() {
			defer srv.Close()
			ss := h.getShardScratch()
			defer h.putShardScratch(ss)
			h.serveBinFrame(ctx, srv, r.frame(), ss, new(wire.Buf))
		}()
		var buf wire.Buf
		data, err := wire.ReadFrame(client, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return answerFromFrame(t, r.kind, data)
	}},
}

func doHTTP(t *testing.T, h *Handler, ctx context.Context, r shardReq, binBody, binResp bool) answer {
	t.Helper()
	req := r.httpRequest(binBody, binResp)
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := rec.Body.Bytes()
	if wire.IsFrame(body) {
		if ct := rec.Header().Get("Content-Type"); ct != wire.ContentType {
			t.Fatalf("frame body with Content-Type %q", ct)
		}
		return answerFromFrame(t, r.kind, body)
	}
	if binResp && rec.Code == http.StatusOK {
		t.Fatalf("asked for a frame, got %s", body)
	}
	return answerFromJSON(t, r.kind, rec.Code, body)
}

// tcpClient is one persistent connection to a handler's binary listener.
type tcpClient struct {
	conn net.Conn
	addr string
	br   *bufio.Reader
	buf  wire.Buf
}

func dialBin(t *testing.T, h *Handler) *tcpClient {
	conn, addr := binDial(t, h)
	return &tcpClient{conn: conn, addr: addr, br: bufio.NewReader(conn)}
}

func (c *tcpClient) exchange(t *testing.T, frame []byte) []byte {
	t.Helper()
	if _, err := c.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	data, err := wire.ReadFrame(c.br, &c.buf)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardTransportParity drives one table of shard requests through
// every transport. Valid requests must come back bit-identical —
// fragments and stats — and invalid ones with the same status
// and stable code, because all transports decode into one shardReq and
// share one validator, one scan call and one error mapping. All rows
// share one TCP connection, so every MsgError row also proves the
// connection survives a query error.
func TestShardTransportParity(t *testing.T) {
	_, hs := shardTopology(t, 2)
	h := hs[0]
	h.MaxBatch = 4
	conn := dialBin(t, h)
	m := h.Manifest()
	n := m.Vertices
	other := hs[1].Manifest()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	const topk, batch, similar = wire.MsgTopKReq, wire.MsgBatchReq, wire.MsgSimilarReq
	rows := []struct {
		name   string
		req    shardReq
		ctx    context.Context
		status int
		code   string
	}{
		{name: "topk", req: shardReq{kind: topk, u: 7, lo: m.Lo, hi: m.Hi}, status: 200},
		{name: "topk range override", req: shardReq{kind: topk, u: 7, lo: other.Lo, hi: other.Hi}, status: 200},
		{name: "topk empty range", req: shardReq{kind: topk, u: 7, lo: 5, hi: 5}, status: 200},
		{name: "batch", req: shardReq{kind: batch, lo: m.Lo, hi: m.Hi, queries: []uint32{3, 9, 3}}, status: 200},
		{name: "batch at the limit", req: shardReq{kind: batch, lo: 0, hi: n, queries: []uint32{0, 1, 2, 3}}, status: 200},
		{name: "similar", req: shardReq{kind: similar, u: 5, theta: 0.02, lo: other.Lo, hi: other.Hi}, status: 200},
		{name: "similar theta 1", req: shardReq{kind: similar, u: 5, theta: 1, lo: 0, hi: n}, status: 200},

		{name: "topk u >= n", req: shardReq{kind: topk, u: n, lo: m.Lo, hi: m.Hi}, status: 400, code: CodeBadRequest},
		{name: "topk hi > n", req: shardReq{kind: topk, u: 7, lo: 0, hi: n + 1}, status: 400, code: CodeBadRequest},
		{name: "topk lo > hi", req: shardReq{kind: topk, u: 7, lo: 10, hi: 5}, status: 400, code: CodeBadRequest},
		{name: "similar u >= n", req: shardReq{kind: similar, u: 1 << 20, theta: 0.02, lo: m.Lo, hi: m.Hi}, status: 400, code: CodeBadRequest},
		{name: "similar lo > hi", req: shardReq{kind: similar, u: 5, theta: 0.02, lo: 10, hi: 5}, status: 400, code: CodeBadRequest},
		{name: "batch empty", req: shardReq{kind: batch, lo: m.Lo, hi: m.Hi}, status: 400, code: CodeBadRequest},
		{name: "batch over MaxBatch", req: shardReq{kind: batch, lo: m.Lo, hi: m.Hi, queries: []uint32{1, 2, 3, 4, 5}}, status: 400, code: CodeBadRequest},
		{name: "batch vertex >= n", req: shardReq{kind: batch, lo: m.Lo, hi: m.Hi, queries: []uint32{1, uint32(n)}}, status: 400, code: CodeBadRequest},
		{name: "batch hi > n", req: shardReq{kind: batch, lo: 0, hi: n + 1, queries: []uint32{1}}, status: 400, code: CodeBadRequest},
		{name: "similar theta 0", req: shardReq{kind: similar, u: 5, theta: 0, lo: m.Lo, hi: m.Hi}, status: 400, code: CodeBadRequest},
		{name: "similar theta 7", req: shardReq{kind: similar, u: 5, theta: 7, lo: m.Lo, hi: m.Hi}, status: 400, code: CodeBadRequest},
		{name: "similar theta NaN", req: shardReq{kind: similar, u: 5, theta: math.NaN(), lo: m.Lo, hi: m.Hi}, status: 400, code: CodeBadRequest},

		{name: "topk cancelled", req: shardReq{kind: topk, u: 7, lo: m.Lo, hi: m.Hi}, ctx: cancelled, status: 503, code: CodeCancelled},
		{name: "batch cancelled", req: shardReq{kind: batch, lo: m.Lo, hi: m.Hi, queries: []uint32{3, 9}}, ctx: cancelled, status: 503, code: CodeCancelled},
		{name: "similar cancelled", req: shardReq{kind: similar, u: 5, theta: 0.02, lo: m.Lo, hi: m.Hi}, ctx: cancelled, status: 503, code: CodeCancelled},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var first answer
			for i, tr := range shardTransports {
				if tr.name == "bin-body-json-resp" && row.req.kind != batch {
					continue
				}
				got := tr.do(t, h, conn, row.ctx, row.req).normalise()
				if got.status != row.status || got.code != row.code {
					t.Fatalf("%s: status %d code %q, want %d %q", tr.name, got.status, got.code, row.status, row.code)
				}
				if i == 0 {
					first = got
					if row.status == 200 && len(got.stats) == 0 {
						t.Fatalf("%s: valid request answered without stats", tr.name)
					}
					continue
				}
				if !reflect.DeepEqual(got, first) {
					t.Fatalf("%s differs from %s:\n got  %+v\n want %+v", tr.name, shardTransports[0].name, got, first)
				}
			}
		})
	}
	if conn := h.counters.binConns.Load(); conn != 1 {
		t.Fatalf("%d TCP connections used, want the one every row shared", conn)
	}
}

// TestShardTimeoutCountsOncePerRequest: a QueryTimeout that has always
// expired answers 503 timeout on every transport and for every kind,
// and bumps timeouts_total exactly once per request.
func TestShardTimeoutCountsOncePerRequest(t *testing.T) {
	_, hs := shardTopology(t, 2)
	h := hs[0]
	h.QueryTimeout = time.Nanosecond
	conn := dialBin(t, h)
	m := h.Manifest()
	for _, req := range []shardReq{
		{kind: wire.MsgTopKReq, u: 7, lo: m.Lo, hi: m.Hi},
		{kind: wire.MsgBatchReq, lo: m.Lo, hi: m.Hi, queries: []uint32{3, 9}},
		{kind: wire.MsgSimilarReq, u: 5, theta: 0.02, lo: m.Lo, hi: m.Hi},
	} {
		for _, tr := range shardTransports {
			if tr.name == "bin-body-json-resp" && req.kind != wire.MsgBatchReq {
				continue
			}
			before := h.counters.timeouts.Load()
			got := tr.do(t, h, conn, nil, req)
			if got.status != http.StatusServiceUnavailable || got.code != CodeTimeout {
				t.Fatalf("kind %d over %s: status %d code %q, want 503 %s", req.kind, tr.name, got.status, got.code, CodeTimeout)
			}
			if d := h.counters.timeouts.Load() - before; d != 1 {
				t.Fatalf("kind %d over %s: timeouts_total moved by %d, want 1", req.kind, tr.name, d)
			}
		}
	}
}

// TestBinTCPPeerCloseCancelsScan: a router that gives up on a TCP
// attempt (lost hedge, timeout) closes the socket; the shard must notice
// and stop scoring, as it does over HTTP through r.Context(). A
// MaxBatch-sized batch of distinct queries makes one prolog-cache lookup
// per query, so the lookups count how far the scan got; left alone, the
// batch below takes about 2 s.
func TestBinTCPPeerCloseCancelsScan(t *testing.T) {
	g := simrank.GenerateSocialGraph(4000, 10, 0.4, 3)
	idx := simrank.BuildIndex(g, simrank.DefaultOptions())
	h := NewShard(idx, 0, 1)
	lookups := func() int64 {
		st := idx.PrologStats()
		return st.Hits + st.Misses
	}
	queries := make([]uint32, h.MaxBatch)
	for i := range queries {
		queries[i] = uint32(i)
	}
	frame := wire.AppendBatchReq(nil, &wire.BatchReq{Lo: 0, Hi: uint32(g.NumVertices()), Queries: queries})

	// One served exchange first, so the connection's goroutines exist
	// when the baseline is taken.
	conn := dialBin(t, h)
	answerFromFrame(t, wire.MsgTopKReq, conn.exchange(t, wire.AppendTopKReq(nil, wire.TopKReq{U: 1, Lo: 0, Hi: 10})))
	goroutines, before := runtime.NumGoroutine(), lookups()

	if _, err := conn.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	conn.conn.Close()

	// The connection's reader and serving goroutines exit only after the
	// scan has returned and every scratch it held is back in its pool.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines-2 {
		if time.Now().After(deadline) {
			t.Fatalf("connection goroutines still running %v after the peer closed: %d goroutines, %d with the connection open",
				10*time.Second, runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(5 * time.Millisecond)
	}
	scanned := lookups() - before
	if scanned >= int64(len(queries))/2 {
		t.Fatalf("abandoned batch still scored %d of %d queries", scanned, len(queries))
	}
	time.Sleep(50 * time.Millisecond)
	if again := lookups() - before; again != scanned {
		t.Fatalf("scan still advancing after its connection ended: %d -> %d lookups", scanned, again)
	}

	// A batch too cheap for this test — one that finishes inside the 10 ms
	// — scores every query and fails above; it cannot pass by accident.
	t.Logf("abandoned batch scored %d of %d queries", scanned, len(queries))
}
