package router

import (
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

// call fetches op's answer over the whole vertex range [0, n) from one
// server: the one shard-call path. Every server holds the full snapshot
// and computes the same row, so any of them returns the same bytes and
// the choice moves load, never an answer. The primary is taken in
// rotation; attempt a goes to server (primary+a) mod S under the hedged
// driver: the next attempt starts when the previous one fails (failover)
// or, with HedgeDelay > 0, is still running after the delay (hedging).
// Each attempt decodes into a pooled reply of its own; the winner's is
// returned for the caller to merge and release (putReply), so no attempt
// still running can write into anything the merge reads.
//
// Each attempt's wire counters and errors go to the server it was sent
// to; the query itself, its hedges and its failure, to the primary.
func (rt *Router) call(ctx context.Context, t *topology, op shardOp) (*reply, error) {
	n := len(t.addrs)
	primary := int(rt.next.Add(1) % uint64(n))
	pc := &rt.shards[primary]
	pc.requests.Add(1)
	rp, hedges, err := hedged(ctx, rt.cfg.HedgeDelay, rt.cfg.MaxAttempts,
		func(ctx context.Context, a int) (*reply, error) {
			j := (primary + a) % n
			sc := &rt.shards[j]
			// A successful attempt hands its reply to hedged: the winner's reaches the caller, a late loser's is dropped to the GC
			rp := rt.getReply()
			var x xfer
			err := rt.attempt(ctx, t.addrs[j], t.binAddrs[j], op, 0, t.vertices, rp, &x)
			sc.bytesSent.Add(x.sent)
			sc.bytesRecv.Add(x.recv)
			sc.encodeNS.Add(x.encodeNS)
			sc.decodeNS.Add(x.decodeNS)
			if err != nil {
				// An attempt cut short because the race was decided or
				// the query gave up is no fault of its server.
				if ctx.Err() == nil {
					sc.attemptErrs.Add(1)
				}
				rt.putReply(rp)
				return nil, err
			}
			return rp, nil
		})
	pc.hedges.Add(int64(hedges))
	if err != nil {
		pc.failures.Add(1)
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

// httpCall runs one GET exchange over HTTP, negotiating a binary
// response unless JSON is forced, and decodes whichever encoding the
// server chose — an old server answers JSON to a binary Accept, and JSON
// never begins with the frame magic — and checks the answer
// (reply.check).
func (rt *Router) httpCall(ctx context.Context, addr string, op shardOp, lo, hi int, rp *reply, x *xfer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+op.httpPath(lo, hi), nil)
	if err != nil {
		return err
	}
	if rt.binEnabled() {
		req.Header.Set("Accept", wire.ContentType)
	}
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
