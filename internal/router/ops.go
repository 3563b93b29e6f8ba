package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	simrank "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

// shardOp is one kind of shard request — topk, batch or similar —
// reduced to the four things call cannot know generically. Every kind is
// answered with fragments, one per query asked for. [lo, hi) is
// the vertex range asked for: the shard's own range, whichever server
// the attempt goes to. An op is read-only once built and must not alias
// pooled memory: a losing attempt may still be encoding it after the
// query that built it has returned.
type shardOp interface {
	// appendReq appends the binary request frame: one message on the TCP
	// transport, or the body of a binary HTTP POST.
	appendReq(dst []byte, lo, hi int) []byte
	// httpReq describes the HTTP form of the request: the endpoint path
	// with its query string, and the POST body (nil means GET) — the
	// binary frame when bin, the JSON shape otherwise.
	httpReq(lo, hi int, bin bool) (path string, body []byte)
	// decodeFrame and decodeJSON lower a 200 answer into rp's merge view,
	// failing it as a bad answer unless it echoes the queries asked for.
	decodeFrame(f *wire.Frame, rp *reply) error
	decodeJSON(body []byte, rp *reply) error
}

func rangeQuery(lo, hi int) string {
	return "&lo=" + strconv.Itoa(lo) + "&hi=" + strconv.Itoa(hi)
}

// setJSONRow stores query qi's decoded JSON answer in rp's rows. The
// fragment is the decoder's own allocation and stats absent from the body
// are all zero.
func (rp *reply) setJSONRow(qi int, r *server.ShardTopKResponse) {
	rp.rows[qi], rp.rowStats[qi] = r.Frag, simrank.QueryStats{}
	if r.Stats != nil {
		rp.rowStats[qi] = *r.Stats
	}
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

// topkOp fetches the fragment of one query; its reply is a batch of one.
type topkOp struct{ u int }

func (o topkOp) appendReq(dst []byte, lo, hi int) []byte {
	return wire.AppendTopKReq(dst, wire.TopKReq{U: uint32(o.u), Lo: uint32(lo), Hi: uint32(hi)})
}

func (o topkOp) httpReq(lo, hi int, bin bool) (string, []byte) {
	return "/shard/topk" + "?u=" + strconv.Itoa(o.u) + rangeQuery(lo, hi), nil
}

func (o topkOp) decodeFrame(f *wire.Frame, rp *reply) error {
	rp.setRows(1)
	resp := wire.TopKResp{Frag: rp.rows[0]}
	if err := f.TopKResp(&resp); err != nil {
		return err
	}
	rp.rows[0], rp.rowStats[0] = resp.Frag, resp.Stats
	return checkEcho(int64(resp.Query), int64(o.u))
}

func (o topkOp) decodeJSON(body []byte, rp *reply) error {
	var resp server.ShardTopKResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	rp.setRows(1)
	rp.setJSONRow(0, &resp)
	return checkEcho(int64(resp.Query), int64(o.u))
}

// batchOp fetches one fragment per query, request order.
type batchOp struct{ queries []uint32 }

func (o batchOp) appendReq(dst []byte, lo, hi int) []byte {
	return wire.AppendBatchReq(dst, &wire.BatchReq{Lo: uint32(lo), Hi: uint32(hi), Queries: o.queries})
}

func (o batchOp) httpReq(lo, hi int, bin bool) (string, []byte) {
	const path = "/shard/topk/batch"
	if bin {
		return path, o.appendReq(nil, lo, hi)
	}
	// Marshal cannot fail on a struct of integers.
	body, _ := json.Marshal(server.ShardBatchRequest{Queries: o.queries, Lo: &lo, Hi: &hi})
	return path, body
}

// checkRows rejects an answer that is not one fragment per query, so a
// short reply fails the attempt instead of reaching the merge.
func (o batchOp) checkRows(got int) error {
	if got != len(o.queries) {
		return badAnswer("%d fragments for %d queries", got, len(o.queries))
	}
	return nil
}

func (o batchOp) decodeFrame(f *wire.Frame, rp *reply) error {
	if err := f.BatchResp(&rp.batch); err != nil {
		return err
	}
	rp.frags, rp.stats = rp.batch.Frags, rp.batch.Stats
	if !slices.Equal(rp.batch.Queries, o.queries) {
		return badAnswer("answered queries %v, asked %v", rp.batch.Queries, o.queries)
	}
	return nil
}

func (o batchOp) decodeJSON(body []byte, rp *reply) error {
	var resp server.ShardBatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if err := o.checkRows(len(resp.Results)); err != nil {
		return err
	}
	rp.setRows(len(resp.Results))
	for qi := range resp.Results {
		rp.setJSONRow(qi, &resp.Results[qi])
		if err := checkEcho(int64(resp.Results[qi].Query), int64(o.queries[qi])); err != nil {
			return err
		}
	}
	return nil
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

func (o similarOp) httpReq(lo, hi int, bin bool) (string, []byte) {
	return "/shard/similar" + "?u=" + strconv.Itoa(o.u) +
		"&theta=" + strconv.FormatFloat(o.theta, 'g', -1, 64) + rangeQuery(lo, hi), nil
}
