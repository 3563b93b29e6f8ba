package router

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// Binary transport client: persistent framed-TCP connections to shard
// servers that advertise a BinAddr. One request/response in flight per
// connection; connections are pooled per address and recycled only
// after a fully clean exchange — any transport or protocol error closes
// the connection instead of repooling it, so a desynchronized stream
// can never poison a later query. Cancellation uses the connection's
// I/O deadline plus context.AfterFunc closing the socket, which unblocks
// a pending read immediately.

// maxIdleBinConns caps the per-address free list; beyond it, finished
// connections close instead of idling.
const maxIdleBinConns = 16

// binConn is one pooled connection with its read-side working memory:
// the buffered reader, the frame-receive buffer, and a parsed-frame
// shell, all reused for every exchange on the connection.
type binConn struct {
	c     net.Conn
	br    *bufio.Reader
	rbuf  wire.Buf
	frame wire.Frame
}

// binPool is the mutex-guarded free list for one shard address.
type binPool struct {
	mu   sync.Mutex
	free []*binConn
}

func (p *binPool) get(ctx context.Context, addr string) (*binConn, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		bc := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return bc, nil
	}
	p.mu.Unlock()
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &binConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (p *binPool) put(bc *binConn) {
	p.mu.Lock()
	if len(p.free) < maxIdleBinConns {
		p.free = append(p.free, bc)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	bc.c.Close()
}

// binPoolFor returns (creating on demand) the pool for addr.
func (rt *Router) binPoolFor(addr string) *binPool {
	rt.binMu.Lock()
	defer rt.binMu.Unlock()
	p := rt.binPools[addr]
	if p == nil {
		p = &binPool{}
		rt.binPools[addr] = p
	}
	return p
}

// ctxErr prefers the context's verdict over a transport error: a read
// cut short because the deadline fired or the socket was closed by
// cancellation should report timeout/cancelled, not a socket error.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// binCall runs one framed exchange of op against addr, decoding the
// answer into rp and checking it (reply.check). A MsgError answer comes
// back as *upstreamError (the connection stays pooled — the stream is
// still aligned); every other failure, a bad answer included, closes the
// connection.
func (rt *Router) binCall(ctx context.Context, addr string, op shardOp, lo, hi int, rp *reply, x *xfer) error {
	p := rt.binPoolFor(addr)
	bc, err := p.get(ctx, addr)
	if err != nil {
		return ctxErr(ctx, err)
	}
	keep := false
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { bc.c.Close() })
	}
	defer func() {
		// stop() returning false means the cancel callback fired (or is
		// firing): the socket is closed or about to be — never repool it.
		if stop != nil && !stop() {
			keep = false
		}
		if keep {
			p.put(bc)
		} else {
			bc.c.Close()
		}
	}()
	if d, ok := ctx.Deadline(); ok {
		bc.c.SetDeadline(d)
	} else {
		bc.c.SetDeadline(time.Time{})
	}

	wbuf := wire.GetBuf()
	defer wire.PutBuf(wbuf)
	t0 := time.Now()
	wbuf.B = op.appendReq(wbuf.B[:0], lo, hi)
	x.encodeNS += time.Since(t0).Nanoseconds()
	n, err := bc.c.Write(wbuf.B)
	x.sent += int64(n)
	if err != nil {
		return ctxErr(ctx, err)
	}

	data, err := wire.ReadFrame(bc.br, &bc.rbuf)
	if err != nil {
		return ctxErr(ctx, err)
	}
	x.recv += int64(len(data))
	t1 := time.Now()
	if err := bc.frame.Parse(data); err != nil {
		return err
	}
	if bc.frame.Type == wire.MsgError {
		var we *wire.Error
		if errors.As(bc.frame.Err(), &we) {
			keep = true
			return &upstreamError{Status: we.Status, Code: we.Code, Msg: we.Msg}
		}
		return bc.frame.Err()
	}
	err = op.decodeFrame(&bc.frame, rp)
	x.decodeNS += time.Since(t1).Nanoseconds()
	if err == nil {
		err = rp.check(lo, hi)
	}
	if err != nil {
		return err
	}
	keep = true
	return nil
}
