package wire

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// FuzzWireDecode throws arbitrary bytes at the frame parser and every
// typed decoder. The invariants under fuzz are the checkSectionCount
// ones from the persist v3 container: no panic, and no decode may
// allocate results larger than the input that claims to describe them —
// a hostile count field must fail validation, not size an allocation.
func FuzzWireDecode(f *testing.F) {
	frag := []core.ShardCand{
		{V: 1, UB: 0.9, State: core.ShardScored, Rough: 0.5, Score: 0.42},
		{V: 2, UB: 0.01, State: core.ShardUnscored},
	}
	stats := core.QueryStats{Candidates: 9, Refined: 4}
	seeds := [][]byte{
		AppendTopKReq(nil, TopKReq{U: 42, Hi: 2000}),
		AppendBatchReq(nil, &BatchReq{Lo: 1, Hi: 9, Queries: []uint32{3, 1, 4}}),
		AppendSimilarReq(nil, SimilarReq{U: 5, Hi: 100, Theta: 0.01}),
		AppendTopKResp(nil, &TopKResp{Query: 42, Shard: 1, Stats: stats, Frag: frag}),
		AppendBatchResp(nil, &BatchResp{
			Queries: []uint32{42, 7},
			Stats:   []core.QueryStats{stats, {}},
			Frags:   [][]core.ShardCand{frag, frag[:1]},
		}),
		// A similar's answer: a fragment scanned at the request's theta.
		AppendTopKResp(nil, &TopKResp{Query: 5, Stats: stats, Frag: []core.ShardCand{
			{V: 2, UB: 0.5, State: core.ShardScored, Rough: 0.3, Score: 0.07},
			{V: 3, UB: 0.06, State: core.ShardRoughPruned, Rough: 0.001},
			{V: 9, UB: 0.04, State: core.ShardUnscored},
		}}),
		AppendError(nil, 503, "not_ready", "warming up"),
	}
	for _, s := range seeds {
		f.Add(s)
		// Seed the interesting mutations explicitly: truncations, a bit
		// flip in each region, and a blown-up first section count.
		f.Add(s[:len(s)/2])
		for _, off := range []int{0, 5, 8, headerLen + 4, len(s) - 1} {
			m := append([]byte(nil), s...)
			m[off] ^= 0x80
			f.Add(m)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := fr.Parse(data); err != nil {
			return
		}
		// Parse accepted the container; every typed decoder must now
		// either succeed or reject — never panic, never over-allocate.
		if req, err := fr.TopKReq(); err == nil {
			_ = req
		}
		var breq BatchReq
		if err := fr.BatchReq(&breq); err == nil && len(breq.Queries)*4 > len(data) {
			t.Fatalf("BatchReq decoded %d queries from %d bytes", len(breq.Queries), len(data))
		}
		if _, err := fr.SimilarReq(); err != nil {
			_ = err
		}
		var tresp TopKResp
		if err := fr.TopKResp(&tresp); err == nil && len(tresp.Frag)*candSize > len(data) {
			t.Fatalf("TopKResp decoded %d rows from %d bytes", len(tresp.Frag), len(data))
		}
		var bresp BatchResp
		if err := fr.BatchResp(&bresp); err == nil {
			total := 0
			for _, fg := range bresp.Frags {
				total += len(fg)
			}
			if total*candSize > len(data) {
				t.Fatalf("BatchResp decoded %d rows from %d bytes", total, len(data))
			}
		}
		_ = fr.Err()

		// The stream reader must agree with the buffer parser on what a
		// complete frame is.
		buf := GetBuf()
		if got, err := ReadFrame(bytes.NewReader(data), buf); err == nil {
			var fr2 Frame
			if err := fr2.Parse(got); err == nil && fr2.Type != fr.Type {
				PutBuf(buf)
				t.Fatalf("ReadFrame type %d, Parse type %d", fr2.Type, fr.Type)
			}
		}
		PutBuf(buf)
	})
}
