package router

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	simrank "repro"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

// tamper rewrites one query's part of a shard answer before the router
// reads it: echo is the query the answer claims to be for, frag its
// fragment.
type tamper func(echo *uint32, frag *[]simrank.ShardCand)

// tamperFrame applies tp to every query of a topk/similar or batch answer
// frame and re-encodes it; any other frame passes through unchanged.
func tamperFrame(data []byte, tp tamper) []byte {
	var f wire.Frame
	if f.Parse(data) != nil {
		return data
	}
	switch f.Type {
	case wire.MsgTopKResp:
		var r wire.TopKResp
		if f.TopKResp(&r) == nil {
			tp(&r.Query, &r.Frag)
			return wire.AppendTopKResp(nil, &r)
		}
	case wire.MsgBatchResp:
		var r wire.BatchResp
		if f.BatchResp(&r) == nil {
			for i := range r.Frags {
				tp(&r.Queries[i], &r.Frags[i])
			}
			return wire.AppendBatchResp(nil, &r)
		}
	}
	return data
}

// tamperJSON is tamperFrame for a JSON answer.
func tamperJSON(path string, body []byte, tp tamper) ([]byte, error) {
	one := func(r *server.ShardTopKResponse) {
		echo := uint32(r.Query)
		tp(&echo, &r.Frag)
		r.Query = int(echo)
	}
	if path == "/shard/topk/batch" {
		var r server.ShardBatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		for i := range r.Results {
			one(&r.Results[i])
		}
		return json.Marshal(r)
	}
	var r server.ShardTopKResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	one(&r)
	return json.Marshal(r)
}

// tamperHandler serves h with every 200 /shard/* answer passed through tp,
// frame or JSON.
func tamperHandler(h http.Handler, tp tamper) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && strings.HasPrefix(r.URL.Path, "/shard/") {
			var err error
			if wire.IsFrame(body) {
				body = tamperFrame(body, tp)
			} else if body, err = tamperJSON(r.URL.Path, body, tp); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// tamperListener passes every frame its connections write through tp.
// The binary listener writes one whole frame per Write.
type tamperListener struct {
	net.Listener
	tp tamper
}

func (l tamperListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tamperConn{c, l.tp}, nil
}

type tamperConn struct {
	net.Conn
	tp tamper
}

func (c tamperConn) Write(p []byte) (int, error) {
	if _, err := c.Conn.Write(tamperFrame(p, c.tp)); err != nil {
		return 0, err
	}
	return len(p), nil
}

// lastUB is a bound just below the fragment's last, so an entry carrying
// it can be appended without breaking the (UB desc, V asc) order.
func lastUB(f []simrank.ShardCand) float64 {
	if len(f) == 0 {
		return 1
	}
	return math.Nextafter(f[len(f)-1].UB, math.Inf(-1))
}

// badAnswers are the shard answers the merge must never read, one defect
// each; binOnly marks the ones JSON cannot carry.
var badAnswers = []struct {
	name    string
	binOnly bool
	tp      tamper
}{
	{name: "query echo", tp: func(echo *uint32, _ *[]simrank.ShardCand) { *echo++ }},
	{name: "out of order", tp: func(_ *uint32, f *[]simrank.ShardCand) {
		(*f)[0], (*f)[1] = (*f)[1], (*f)[0]
	}},
	{name: "repeated vertex", tp: func(_ *uint32, f *[]simrank.ShardCand) {
		dup := (*f)[0]
		dup.UB = lastUB(*f)
		*f = append(*f, dup)
	}},
	{name: "vertex outside the range", tp: func(_ *uint32, f *[]simrank.ShardCand) {
		*f = append(*f, simrank.ShardCand{V: 1 << 20, UB: lastUB(*f), State: simrank.ShardUnscored})
	}},
	{name: "unknown state", tp: func(_ *uint32, f *[]simrank.ShardCand) { (*f)[0].State = 9 }},
	{name: "NaN", binOnly: true, tp: func(_ *uint32, f *[]simrank.ShardCand) { (*f)[0].Score = math.NaN() }},
}

// TestRouterRejectsBadShardAnswers: a shard answer that is not what the
// merge assumes — another query's, unsorted, with a vertex twice or
// outside the range asked for, in no known state, or carrying a NaN — is
// never merged. With every server answering so, each routed query fails
// as 502 upstream on every transport, and the TCP connections that
// carried the bad answers are closed rather than pooled.
func TestRouterRejectsBadShardAnswers(t *testing.T) {
	idx := buildIndex(t)
	// The defects above need two entries in each shard's fragment.
	for _, u := range []int{42, 7} {
		for i := 0; i < 2; i++ {
			lo, hi := shard.Range(i, 2, idx.Graph().NumVertices())
			for _, theta := range []float64{idx.Threshold(), 0.005} {
				f, _, err := idx.SimilarShardCtx(t.Context(), u, theta, lo, hi, nil)
				if err != nil || len(f) < 2 {
					t.Fatalf("u=%d [%d, %d) theta=%g: %d entries, %v", u, lo, hi, theta, len(f), err)
				}
			}
		}
	}
	transports := []struct {
		name string
		cfg  Config
		o    topoOpts
	}{
		{"tcp-bin", Config{}, topoOpts{}},
		{"http-bin", Config{}, topoOpts{noBin: true}},
		{"json", Config{Wire: WireJSON}, topoOpts{noBin: true}},
	}
	for _, bad := range badAnswers {
		t.Run(bad.name, func(t *testing.T) {
			for _, tr := range transports {
				if bad.binOnly && tr.cfg.Wire == WireJSON {
					continue
				}
				o := tr.o
				o.tamper = bad.tp
				rt, _ := loopbackOpts(t, idx, 2, tr.cfg, o)
				for _, q := range []struct{ method, path, body string }{
					{http.MethodGet, "/topk?u=42&k=5", ""},
					{http.MethodGet, "/similar?u=42&theta=0.005", ""},
					{http.MethodPost, "/topk/batch", `{"queries":[42,7],"k":5}`},
				} {
					var rec *httptest.ResponseRecorder
					var body []byte
					if q.method == http.MethodGet {
						rec, body = routerGet(t, rt, q.path)
					} else {
						rec, body = routerPost(t, rt, q.path, q.body)
					}
					var er server.ErrorResponse
					if err := json.Unmarshal(body, &er); err != nil || rec.Code != http.StatusBadGateway || er.Code != server.CodeUpstream {
						t.Fatalf("%s %s: status %d body %s, want 502 %s", tr.name, q.path, rec.Code, body, server.CodeUpstream)
					}
				}
				rt.binMu.Lock()
				for addr, p := range rt.binPools {
					if n := len(p.free); n != 0 {
						t.Errorf("%s: %d connections to %s pooled after bad answers", tr.name, n, addr)
					}
				}
				rt.binMu.Unlock()
				if tr.name == "tcp-bin" && len(rt.binPools) == 0 {
					t.Fatal("tcp-bin: no TCP connection was used")
				}
			}
		})
	}
}

// TestRouterFailsOverBadShardAnswers: one server answering badly is a
// failed attempt like any other; the next server answers its range and
// the routed answer is the single-node one.
func TestRouterFailsOverBadShardAnswers(t *testing.T) {
	idx := buildIndex(t)
	single := server.New(idx)
	_, good := loopback(t, idx, 2, Config{})
	_, bad := loopbackOpts(t, idx, 2, Config{}, topoOpts{tamper: badAnswers[0].tp})
	rt := New(Config{Shards: []string{good[0].URL, bad[1].URL}})
	if err := rt.Probe(t.Context()); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/topk?u=42&k=5&stats=1", "/similar?u=42&theta=0.005"} {
		rec, body := routerGet(t, rt, path)
		_, sbody := routerGet(t, single, path)
		var got, want server.TopKResponse
		if err := json.Unmarshal(body, &got); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, body)
		}
		if err := json.Unmarshal(sbody, &want); err != nil {
			t.Fatal(err)
		}
		if err := diffAnswer(got, want); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	var st RouterStatusz
	_, body := routerGet(t, rt, "/statusz")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if errs := st.Shards[1].AttemptErrsTotal; errs == 0 {
		t.Fatal("the bad answers of shard 1 count no attempt errors")
	}
}
