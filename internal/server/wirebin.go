package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"time"

	simrank "repro"
	"repro/internal/wire"
)

// Binary wire serving. The /shard/* endpoints negotiate the binary
// codec (internal/wire) via the Accept header — a router that sends
// "Accept: application/x-simrank-bin" gets a frame instead of JSON, and
// a binary Content-Type on POST /shard/topk/batch selects binary
// request decoding — and the persistent TCP transport (ServeBin) speaks
// frames only, with errors as MsgError frames. Both are transports for
// the one shard-request path in servershard.go (shardReq → checkShardReq
// → run → encodeResp/jsonResp).
//
// All fragment, stats and encode buffers come from per-handler pools,
// so the steady-state shard path allocates nothing per request beyond
// what the scan itself needs.

// wantBin reports whether the client negotiated a binary response.
func wantBin(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.ContentType)
}

// binBody reports whether the request body is a binary frame.
func binBody(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Content-Type"), wire.ContentType)
}

// StatsToWire is the identity: the binary codec carries QueryStats as it
// is. Kept for its only caller, benchmark/layers.go, which may not be
// edited.
func StatsToWire(st simrank.QueryStats) simrank.QueryStats { return st }

// shardScratch is the pooled working set of one shard request: fragment
// and stats buffers the scans append into (one row per query) and the
// decode shells for binary requests.
// Acquire with getShardScratch, release with putShardScratch on every
// return path.
type shardScratch struct {
	frags [][]simrank.ShardCand
	sts   []simrank.QueryStats
	breq  wire.BatchReq
	frame wire.Frame
}

// ensureBatch sizes the per-query slices for n queries, reusing each
// fragment slot's capacity. A slot starts out empty, not nil: the scans
// append into it, and the JSON encoding of a fragment without candidates
// is [], not null.
func (ss *shardScratch) ensureBatch(n int) {
	for len(ss.frags) < n {
		ss.frags = append(ss.frags, []simrank.ShardCand{})
	}
	ss.frags = ss.frags[:n]
	if cap(ss.sts) < n {
		ss.sts = make([]simrank.QueryStats, n)
	}
	ss.sts = ss.sts[:n]
}

func (h *Handler) getShardScratch() *shardScratch {
	return h.shardPool.Get().(*shardScratch)
}

func (h *Handler) putShardScratch(ss *shardScratch) {
	h.shardPool.Put(ss)
}

// --- persistent TCP transport ---

// StartBin begins serving the binary protocol on addr in the background
// and returns the bound address plus a closer. Used by tests and by
// simserver's bootstrap.
func (h *Handler) StartBin(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	// Store the bound address before the accept goroutine is scheduled,
	// so a /shardinfo probe racing the bootstrap still sees it.
	h.binAddr.Store(ln.Addr().String())
	go h.ServeBin(ln)
	return ln.Addr().String(), func() { ln.Close() }, nil
}

// ServeBin accepts persistent binary-protocol connections on ln. One
// frame in, one frame out, in order, per connection; protocol errors
// close the connection, query errors answer with MsgError and keep it.
func (h *Handler) ServeBin(ln net.Listener) error {
	h.binAddr.Store(ln.Addr().String())
	//lint:ignore ctxflow accept loop lives for the listener; closing the listener unblocks Accept and ends it
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go h.serveBinConn(conn)
	}
}

// serveBinConn serves one connection. A reader goroutine owns the
// socket's read side: it reads frames into two alternating buffers and
// hands them over an unbuffered channel, so it is at most one frame
// ahead of the serving loop and never overwrites the frame being
// served. Its other job is noticing the peer: a read error while a query
// is in flight (the router closed the socket on a lost hedge or a
// timeout) cancels ctx, and with it the scan, the way r.Context() does
// over HTTP. A peer that half-closes after its last request is
// indistinguishable and gets the same treatment.
func (h *Handler) serveBinConn(conn net.Conn) {
	defer conn.Close()
	h.counters.binConns.Add(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	frames := make(chan []byte)
	var readErr error // written before frames closes, read after
	go func() {
		defer close(frames)
		defer cancel()
		br := bufio.NewReaderSize(conn, 64<<10)
		var bufs [2]wire.Buf
		for i := 0; ; i++ {
			data, err := wire.ReadFrame(br, &bufs[i%2])
			if err != nil {
				readErr = err
				return
			}
			select {
			case frames <- data:
			case <-ctx.Done():
				return
			}
		}
	}()
	wbuf := wire.GetBuf()
	defer wire.PutBuf(wbuf)
	ss := h.getShardScratch()
	defer h.putShardScratch(ss)
	for data := range frames {
		h.counters.wireBytesIn.Add(int64(len(data)))
		if !h.serveBinFrame(ctx, conn, data, ss, wbuf) {
			return
		}
	}
	// io.EOF is the clean close; a frame error means the stream
	// desynchronized — either way the connection is done. Tell a
	// still-listening peer why before dropping it.
	if errors.Is(readErr, wire.ErrFrame) {
		wbuf.B = wire.AppendError(wbuf.B[:0], http.StatusBadRequest, CodeBadRequest, readErr.Error())
		conn.Write(wbuf.B)
	}
}

// serveBinFrame answers one frame under ctx (the connection's, bounded
// by QueryTimeout — there is no request context to inherit); false
// means the connection must close (protocol breakdown or a dead peer).
// A request that fails to decode, validate or run is answered with a
// MsgError frame and keeps the connection: the stream is still aligned.
func (h *Handler) serveBinFrame(ctx context.Context, conn net.Conn, data []byte, ss *shardScratch, wbuf *wire.Buf) bool {
	t0 := time.Now()
	if err := ss.frame.Parse(data); err != nil {
		wbuf.B = wire.AppendError(wbuf.B[:0], http.StatusBadRequest, CodeBadRequest, err.Error())
		conn.Write(wbuf.B)
		return false
	}
	req, err := h.shardReqFromFrame(&ss.frame, &ss.breq)
	h.counters.decodeNS.Add(time.Since(t0).Nanoseconds())
	if err == nil {
		err = h.checkShardReq(&req)
	}
	if err == nil {
		cancel := func() {}
		if h.QueryTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, h.QueryTimeout)
		}
		start := time.Now()
		err = h.run(ctx, &req, ss)
		cancel()
		if err == nil {
			h.encodeResp(wbuf, &req, ss, time.Since(start))
		}
	}
	if err != nil {
		status, code, msg := h.errStatus(err)
		wbuf.B = wire.AppendError(wbuf.B[:0], status, code, msg)
	}
	n, err := conn.Write(wbuf.B)
	h.counters.wireBytesOut.Add(int64(n))
	return err == nil
}
