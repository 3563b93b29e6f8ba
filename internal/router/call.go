package router

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/wire"
)

// xfer is one attempt's wire activity. The transports fill it in and
// call folds it into the shard's counters, so the counters have one
// writer however many transports and attempts there are.
type xfer struct {
	sent, recv         int64
	encodeNS, decodeNS int64
}

// scatter runs op against every shard concurrently, leaving each
// shard's winning reply or error in g, and returns the first error.
func (rt *Router) scatter(ctx context.Context, t *topology, op shardOp, g *gather) error {
	n := len(t.addrs)
	g.ensure(n)
	fanout(n, func(i int) {
		g.replies[i], g.errs[i] = rt.call(ctx, t, i, op)
	})
	for _, err := range g.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// call fetches shard si's answer to op: the one shard-call path. Attempt
// a goes to server (si+a) mod S — any server can score any range — under
// the hedged driver: the next attempt starts when the previous one fails
// (failover) or, with HedgeDelay > 0, is still running after the delay
// (hedging). Each attempt decodes into a pooled reply of its own; the
// winner's is returned (released later by putGather), so no attempt still
// running can write into anything the merge reads.
func (rt *Router) call(ctx context.Context, t *topology, si int, op shardOp) (*reply, error) {
	sc := &rt.shards[si]
	sc.requests.Add(1)
	m := t.manifests[si]
	rp, hedges, errs, err := hedged(ctx, rt.cfg.HedgeDelay, rt.cfg.MaxAttempts,
		func(ctx context.Context, a int) (*reply, error) {
			j := (si + a) % len(t.addrs)
			//lint:ignore poolbalance a successful attempt hands its reply to hedged: the winner's reaches the gather and putGather releases it, a late loser's is dropped to the GC
			rp := rt.getReply()
			var x xfer
			err := rt.attempt(ctx, t.addrs[j], t.binAddrs[j], op, m.Lo, m.Hi, rp, &x)
			sc.bytesSent.Add(x.sent)
			sc.bytesRecv.Add(x.recv)
			sc.encodeNS.Add(x.encodeNS)
			sc.decodeNS.Add(x.decodeNS)
			if err != nil {
				rt.putReply(rp)
				return nil, err
			}
			return rp, nil
		})
	sc.hedges.Add(int64(hedges))
	sc.attemptErrs.Add(int64(errs))
	if err != nil {
		sc.failures.Add(1)
	}
	return rp, err
}

// attempt runs one exchange with one server, picking the transport:
// persistent binary TCP when the server advertises it and JSON is not
// forced, otherwise HTTP. A TCP transport failure falls back to the same
// server's HTTP endpoint, which may still be up; an upstream error (the
// server answered, with a failure) or a dead context does not.
func (rt *Router) attempt(ctx context.Context, addr, binAddr string, op shardOp, lo, hi int, rp *reply, x *xfer) error {
	if rt.binEnabled() && binAddr != "" {
		err := rt.binCall(ctx, binAddr, op, lo, hi, rp, x)
		if err == nil || ctx.Err() != nil {
			return err
		}
		if ue := (*upstreamError)(nil); errors.As(err, &ue) {
			return err
		}
	}
	return rt.httpCall(ctx, addr, op, lo, hi, rp, x)
}

// httpCall runs one exchange over HTTP, negotiating a binary response
// (and sending binary POST bodies) unless JSON is forced, and decodes
// whichever encoding the server chose — an old server answers JSON to a
// binary Accept, and JSON never begins with the frame magic — and checks
// the answer (reply.check).
func (rt *Router) httpCall(ctx context.Context, addr string, op shardOp, lo, hi int, rp *reply, x *xfer) error {
	bin := rt.binEnabled()
	t0 := time.Now()
	path, payload := op.httpReq(lo, hi, bin)
	method, body := http.MethodGet, io.Reader(nil)
	if payload != nil {
		method, body = http.MethodPost, bytes.NewReader(payload)
		if bin {
			x.encodeNS += time.Since(t0).Nanoseconds()
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, addr+path, body)
	if err != nil {
		return err
	}
	if bin {
		req.Header.Set("Accept", wire.ContentType)
	}
	if payload != nil {
		ctype := "application/json"
		if bin {
			ctype = wire.ContentType
		}
		req.Header.Set("Content-Type", ctype)
	}
	x.sent += int64(len(payload))
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	x.recv += int64(len(data))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return asUpstreamError(resp.StatusCode, data)
	}
	if !wire.IsFrame(data) {
		err = op.decodeJSON(data, rp)
	} else {
		t1 := time.Now()
		err = rp.frame.Parse(data)
		if err == nil {
			err = op.decodeFrame(&rp.frame, rp)
		}
		x.decodeNS += time.Since(t1).Nanoseconds()
	}
	if err != nil {
		return err
	}
	return rp.check(lo, hi)
}
