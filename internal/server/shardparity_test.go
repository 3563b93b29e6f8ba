package server

import (
	"bufio"
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
// would read — the fragment and its stats.
type answer struct {
	status int
	code   string
	frag   []simrank.ShardCand
	stats  *simrank.QueryStats
}

// answerFromJSON lowers a JSON shard response (or error body).
func answerFromJSON(t *testing.T, status int, body []byte) answer {
	t.Helper()
	if status != http.StatusOK {
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("error body not JSON: %s", body)
		}
		return answer{status: status, code: er.Code}
	}
	var r ShardTopKResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	return answer{status: status, frag: r.Frag, stats: r.Stats}
}

// answerFromFrame lowers a response frame (or MsgError frame).
func answerFromFrame(t *testing.T, data []byte) answer {
	t.Helper()
	var f wire.Frame
	if err := f.Parse(data); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Type == wire.MsgError {
		var we *wire.Error
		if !errors.As(f.Err(), &we) {
			t.Fatalf("bad error frame: %v", f.Err())
		}
		return answer{status: we.Status, code: we.Code}
	}
	var r wire.TopKResp
	if err := f.TopKResp(&r); err != nil {
		t.Fatalf("decode response frame: %v", err)
	}
	return answer{status: http.StatusOK, frag: r.Frag, stats: &r.Stats}
}

// normalise makes an empty and a nil fragment compare equal.
func (a answer) normalise() answer {
	if len(a.frag) == 0 {
		a.frag = nil
	}
	return a
}

func (r shardReq) frame() []byte {
	if r.kind == wire.MsgTopKReq {
		return wire.AppendTopKReq(nil, wire.TopKReq{U: uint32(r.u), Lo: uint32(r.lo), Hi: uint32(r.hi)})
	}
	return wire.AppendSimilarReq(nil, wire.SimilarReq{U: uint32(r.u), Lo: uint32(r.lo), Hi: uint32(r.hi), Theta: r.theta})
}

// httpRequest builds the HTTP form of r: a GET with a query string.
func (r shardReq) httpRequest(binResp bool) *http.Request {
	path := fmt.Sprintf("/shard/topk?u=%d", r.u)
	if r.kind == wire.MsgSimilarReq {
		path = fmt.Sprintf("/shard/similar?u=%d&theta=%s", r.u, strconv.FormatFloat(r.theta, 'g', -1, 64))
	}
	req := httptest.NewRequest(http.MethodGet, path+fmt.Sprintf("&lo=%d&hi=%d", r.lo, r.hi), nil)
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
		return doHTTP(t, h, ctx, r, false)
	}},
	{"bin-http", func(t *testing.T, h *Handler, _ *tcpClient, ctx context.Context, r shardReq) answer {
		return doHTTP(t, h, ctx, r, true)
	}},
	{"tcp", func(t *testing.T, h *Handler, conn *tcpClient, ctx context.Context, r shardReq) answer {
		if ctx == nil {
			return answerFromFrame(t, conn.exchange(t, r.frame()))
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
		return answerFromFrame(t, data)
	}},
}

func doHTTP(t *testing.T, h *Handler, ctx context.Context, r shardReq, binResp bool) answer {
	t.Helper()
	req := r.httpRequest(binResp)
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
		return answerFromFrame(t, body)
	}
	if binResp && rec.Code == http.StatusOK {
		t.Fatalf("asked for a frame, got %s", body)
	}
	return answerFromJSON(t, rec.Code, body)
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
// share one scan call, which validates the vertex and the range, and one
// error mapping. All rows
// share one TCP connection, so every MsgError row also proves the
// connection survives a query error.
func TestShardTransportParity(t *testing.T) {
	_, hs := shardTopology(t, 2)
	h := hs[0]
	conn := dialBin(t, h)
	m := h.Manifest()
	n := m.Vertices
	other := hs[1].Manifest()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	const topk, similar = wire.MsgTopKReq, wire.MsgSimilarReq
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
		{name: "similar", req: shardReq{kind: similar, u: 5, theta: 0.02, lo: other.Lo, hi: other.Hi}, status: 200},
		{name: "similar theta 1", req: shardReq{kind: similar, u: 5, theta: 1, lo: 0, hi: n}, status: 200},

		{name: "topk u >= n", req: shardReq{kind: topk, u: n, lo: m.Lo, hi: m.Hi}, status: 400, code: CodeBadRequest},
		{name: "topk u < 0", req: shardReq{kind: topk, u: -1, lo: m.Lo, hi: m.Hi}, status: 400, code: CodeBadRequest},
		{name: "topk hi > n", req: shardReq{kind: topk, u: 7, lo: 0, hi: n + 1}, status: 400, code: CodeBadRequest},
		{name: "topk lo > hi", req: shardReq{kind: topk, u: 7, lo: 10, hi: 5}, status: 400, code: CodeBadRequest},
		{name: "similar u >= n", req: shardReq{kind: similar, u: 1 << 20, theta: 0.02, lo: m.Lo, hi: m.Hi}, status: 400, code: CodeBadRequest},
		{name: "similar lo > hi", req: shardReq{kind: similar, u: 5, theta: 0.02, lo: 10, hi: 5}, status: 400, code: CodeBadRequest},
		{name: "similar hi > n", req: shardReq{kind: similar, u: 5, theta: 0.02, lo: 0, hi: n + 1}, status: 400, code: CodeBadRequest},
		{name: "similar theta 0", req: shardReq{kind: similar, u: 5, theta: 0, lo: m.Lo, hi: m.Hi}, status: 400, code: CodeBadRequest},
		{name: "similar theta 7", req: shardReq{kind: similar, u: 5, theta: 7, lo: m.Lo, hi: m.Hi}, status: 400, code: CodeBadRequest},
		{name: "similar theta NaN", req: shardReq{kind: similar, u: 5, theta: math.NaN(), lo: m.Lo, hi: m.Hi}, status: 400, code: CodeBadRequest},

		{name: "topk cancelled", req: shardReq{kind: topk, u: 7, lo: m.Lo, hi: m.Hi}, ctx: cancelled, status: 503, code: CodeCancelled},
		{name: "similar cancelled", req: shardReq{kind: similar, u: 5, theta: 0.02, lo: m.Lo, hi: m.Hi}, ctx: cancelled, status: 503, code: CodeCancelled},
	}
	accepted := int64(0)
	for _, row := range rows {
		if row.status != 400 {
			accepted += int64(len(shardTransports))
		}
		t.Run(row.name, func(t *testing.T) {
			var first answer
			for i, tr := range shardTransports {
				got := tr.do(t, h, conn, row.ctx, row.req).normalise()
				if got.status != row.status || got.code != row.code {
					t.Fatalf("%s: status %d code %q, want %d %q", tr.name, got.status, got.code, row.status, row.code)
				}
				if i == 0 {
					first = got
					if row.status == 200 && got.stats == nil {
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
	// A request counts once the scan has accepted its vertex and range:
	// answered or cancelled, never refused.
	if got := h.counters.shardQueries.Load(); got != accepted {
		t.Fatalf("shard_queries_total %d, want %d (the rows not refused, on every transport)", got, accepted)
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
		{kind: wire.MsgSimilarReq, u: 5, theta: 0.02, lo: m.Lo, hi: m.Hi},
	} {
		for _, tr := range shardTransports {
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
// and stop the scan in flight, as it does over HTTP through
// r.Context(). One long scan stands in: a linear /shard/similar at θ 1e-9,
// which prunes nothing, from the newest vertex of a social graph, whose
// whole row takes at least 50 ms alone. The backward pass checks its context once per level, so
// the connection's goroutines must be gone well before the row would have
// been done, and the cut-off request still counts as a shard query.
func TestBinTCPPeerCloseCancelsScan(t *testing.T) {
	const n = 80000
	const u, theta = n - 1, 1e-9
	g := simrank.GenerateSocialGraph(n, 10, 0.4, 3)
	idx := simrank.BuildIndex(g, simrank.DefaultOptions())
	h := NewShard(idx, 0, 1)
	row := func() time.Duration {
		start := time.Now()
		if _, _, err := idx.SimilarShardCtx(context.Background(), u, theta, 0, n, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// A row too cheap for this test ends before the close and cannot tell
	// a stopped scan from a finished one: it fails here instead.
	full := min(row(), row())
	if full < 50*time.Millisecond {
		t.Fatalf("the whole row takes %v; the test needs at least 50ms", full)
	}

	// One served exchange first, so the connection's goroutines exist
	// when the baseline is taken.
	conn := dialBin(t, h)
	answerFromFrame(t, conn.exchange(t, wire.AppendTopKReq(nil, wire.TopKReq{U: 1, Lo: 0, Hi: 10})))
	goroutines, received := runtime.NumGoroutine(), h.counters.wireBytesIn.Load()

	frame := wire.AppendSimilarReq(nil, wire.SimilarReq{U: u, Theta: theta, Lo: 0, Hi: n})
	if _, err := conn.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// Close once the frame has left the reader, which is back in a socket
	// read and must see the close there; the serving goroutine is then
	// computing the row.
	deadline := time.Now().Add(10 * time.Second)
	for h.counters.wireBytesIn.Load() == received {
		if time.Now().After(deadline) {
			t.Fatal("the request never reached the serving goroutine")
		}
		time.Sleep(100 * time.Microsecond)
	}
	conn.conn.Close()
	closed := time.Now()

	// The connection's reader and serving goroutines exit only after the
	// scan has returned and every scratch it held is back in its pool.
	for runtime.NumGoroutine() > goroutines-2 {
		if time.Now().After(deadline) {
			t.Fatalf("connection goroutines still running after the peer closed: %d goroutines, %d with the connection open",
				runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(100 * time.Microsecond)
	}
	cut := time.Since(closed)
	t.Logf("the row takes %v; the connection's goroutines exited %v after the close", full, cut)
	if cut > full/2 {
		t.Fatalf("connection goroutines exited %v after the close, the whole row takes %v", cut, full)
	}
	if got := h.counters.shardQueries.Load(); got != 2 {
		t.Fatalf("shard_queries_total %d, want 2 (the served exchange and the cancelled one)", got)
	}
}
