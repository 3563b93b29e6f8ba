package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	simrank "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

// shardOp is one kind of shard request — topk or similar — reduced to
// the four things call cannot know generically. Every request asks for
// one query and is answered with its fragment. [lo, hi) is the vertex
// range asked for: call asks for all of [0, n), whichever server the
// attempt goes to. An op is read-only once built and must not alias pooled
// memory: a losing attempt may still be encoding it after the query that
// built it has returned.
type shardOp interface {
	// appendReq appends the binary request frame: one message on the TCP
	// transport.
	appendReq(dst []byte, lo, hi int) []byte
	// httpPath is the HTTP form of the request: the GET endpoint path
	// with its query string.
	httpPath(lo, hi int) string
	// decodeFrame and decodeJSON lower a 200 answer into rp's fragment
	// and stats, failing it as a bad answer unless it echoes the query
	// asked for.
	decodeFrame(f *wire.Frame, rp *reply) error
	decodeJSON(body []byte, rp *reply) error
}

func rangeQuery(lo, hi int) string {
	return "&lo=" + strconv.Itoa(lo) + "&hi=" + strconv.Itoa(hi)
}

// badAnswer fails an attempt whose shard answered 200 with a body the
// merge must not read: an upstream error, so the attempt neither falls
// back to the same server's HTTP endpoint nor keeps its TCP connection.
func badAnswer(format string, args ...any) error {
	return &upstreamError{Status: http.StatusOK, Code: server.CodeUpstream, Msg: fmt.Sprintf(format, args...)}
}

// checkEcho fails an answer for query got where want was asked.
func checkEcho(got, want int64) error {
	if got != want {
		return badAnswer("answered query %d, asked %d", got, want)
	}
	return nil
}

// topkOp fetches the fragment of one query.
type topkOp struct{ u int }

func (o topkOp) appendReq(dst []byte, lo, hi int) []byte {
	return wire.AppendTopKReq(dst, wire.TopKReq{U: uint32(o.u), Lo: uint32(lo), Hi: uint32(hi)})
}

func (o topkOp) httpPath(lo, hi int) string {
	return "/shard/topk" + "?u=" + strconv.Itoa(o.u) + rangeQuery(lo, hi)
}

func (o topkOp) decodeFrame(f *wire.Frame, rp *reply) error {
	resp := wire.TopKResp{Frag: rp.frag}
	if err := f.TopKResp(&resp); err != nil {
		return err
	}
	rp.frag, rp.stats = resp.Frag, resp.Stats
	return checkEcho(int64(resp.Query), int64(o.u))
}

// decodeJSON keeps the decoder's own fragment allocation; stats absent
// from the body are all zero.
func (o topkOp) decodeJSON(body []byte, rp *reply) error {
	var resp server.ShardTopKResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	rp.frag, rp.stats = resp.Frag, simrank.QueryStats{}
	if resp.Stats != nil {
		rp.stats = *resp.Stats
	}
	return checkEcho(int64(resp.Query), int64(o.u))
}

// similarOp fetches the fragment of one threshold query, scanned at its
// own theta; the answer is a topk's, so it decodes as one.
type similarOp struct {
	topkOp
	theta float64
}

func (o similarOp) appendReq(dst []byte, lo, hi int) []byte {
	return wire.AppendSimilarReq(dst, wire.SimilarReq{U: uint32(o.u), Lo: uint32(lo), Hi: uint32(hi), Theta: o.theta})
}

func (o similarOp) httpPath(lo, hi int) string {
	return "/shard/similar" + "?u=" + strconv.Itoa(o.u) +
		"&theta=" + strconv.FormatFloat(o.theta, 'g', -1, 64) + rangeQuery(lo, hi)
}
