package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/wire"
)

// getBin issues a GET with binary-response negotiation.
func getBin(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Accept", wire.ContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// binDial starts the TCP listener on a handler and returns a connected
// client plus the advertised address.
func binDial(t *testing.T, h *Handler) (net.Conn, string) {
	t.Helper()
	addr, stop, err := h.StartBin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, addr
}

// TestBinTCPRoundTrip exercises the persistent TCP transport: several
// requests on one connection, matching the HTTP-JSON answers, with the
// listener address advertised on /shardinfo.
func TestBinTCPRoundTrip(t *testing.T) {
	_, hs := shardTopology(t, 2)
	h := hs[0]
	m := h.manifest
	conn, addr := binDial(t, h)

	// /shardinfo must now advertise the listener.
	_, body := get(t, h, "/shardinfo")
	var adv struct {
		BinAddr string `json:"bin_addr"`
	}
	if err := json.Unmarshal(body, &adv); err != nil {
		t.Fatal(err)
	}
	if adv.BinAddr != addr {
		t.Fatalf("shardinfo bin_addr = %q, want %q", adv.BinAddr, addr)
	}

	br := bufio.NewReader(conn)
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	var f wire.Frame
	for try := 0; try < 3; try++ {
		out := wire.AppendTopKReq(nil, wire.TopKReq{U: 7, Lo: uint32(m.Lo), Hi: uint32(m.Hi)})
		if _, err := conn.Write(out); err != nil {
			t.Fatal(err)
		}
		data, err := wire.ReadFrame(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Parse(data); err != nil {
			t.Fatal(err)
		}
		var resp wire.TopKResp
		if err := f.TopKResp(&resp); err != nil {
			t.Fatal(err)
		}
		_, jbody := get(t, h, "/shard/topk?u=7")
		var jr ShardTopKResponse
		if err := json.Unmarshal(jbody, &jr); err != nil {
			t.Fatal(err)
		}
		jfrag := jr.Frag
		if len(resp.Frag) != len(jfrag) {
			t.Fatalf("try %d: %d rows vs %d", try, len(resp.Frag), len(jfrag))
		}
		for i := range resp.Frag {
			if resp.Frag[i] != jfrag[i] {
				t.Fatalf("try %d row %d differs", try, i)
			}
		}
	}
}

// TestBinTCPQueryErrorKeepsConn sends an out-of-range vertex, expects a
// MsgError frame, and then a valid query on the SAME connection.
func TestBinTCPQueryErrorKeepsConn(t *testing.T) {
	_, hs := shardTopology(t, 2)
	h := hs[0]
	m := h.manifest
	conn, _ := binDial(t, h)
	br := bufio.NewReader(conn)
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	var f wire.Frame

	out := wire.AppendTopKReq(nil, wire.TopKReq{U: 1 << 20, Lo: uint32(m.Lo), Hi: uint32(m.Hi)})
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	data, err := wire.ReadFrame(br, buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Parse(data); err != nil {
		t.Fatal(err)
	}
	var werr *wire.Error
	if !errors.As(f.Err(), &werr) {
		t.Fatalf("expected error frame, got type %d", f.Type)
	}
	if werr.Status != http.StatusBadRequest || werr.Code != CodeBadRequest {
		t.Fatalf("error frame = %+v, want 400 %s", werr, CodeBadRequest)
	}

	// The connection must still serve.
	out = wire.AppendTopKReq(nil, wire.TopKReq{U: 3, Lo: uint32(m.Lo), Hi: uint32(m.Hi)})
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	if data, err = wire.ReadFrame(br, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Parse(data); err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.MsgTopKResp {
		t.Fatalf("after error frame, got type %d, want MsgTopKResp", f.Type)
	}
}

// TestBinTCPGarbageClosesConn writes bytes that are not a frame and
// expects the server to drop the connection.
func TestBinTCPGarbageClosesConn(t *testing.T) {
	_, hs := shardTopology(t, 2)
	conn, _ := binDial(t, hs[0])
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// Drain whatever the server sends; the read must terminate with EOF
	// rather than hang, proving the connection was closed.
	tmp := make([]byte, 4096)
	for {
		if _, err := conn.Read(tmp); err != nil {
			return
		}
	}
}

// TestStatuszWireCounters checks that binary traffic shows up in the
// wire slice of /statusz.
func TestStatuszWireCounters(t *testing.T) {
	_, hs := shardTopology(t, 2)
	h := hs[0]
	getBin(t, h, "/shard/topk?u=7")
	_, body := get(t, h, "/statusz")
	var st StatuszResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Wire.BinRequestsTotal == 0 || st.Wire.BytesSent == 0 || st.Wire.EncodeNs == 0 {
		t.Fatalf("wire counters not populated: %+v", st.Wire)
	}
}
