package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
		AppendSimilarReq(nil, SimilarReq{U: 5, Hi: 100, Theta: 0.01}),
		AppendTopKResp(nil, &TopKResp{Query: 42, Shard: 1, Stats: stats, Frag: frag}),
		// An empty range's answer: a zero-count candidate section.
		AppendTopKResp(nil, &TopKResp{Query: 7, Stats: stats}),
		reorderedTopKResp(stats, frag),
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
		if _, err := fr.SimilarReq(); err != nil {
			_ = err
		}
		var tresp TopKResp
		if err := fr.TopKResp(&tresp); err == nil && len(tresp.Frag)*candSize > len(data) {
			t.Fatalf("TopKResp decoded %d rows from %d bytes", len(tresp.Frag), len(data))
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

// reorderedTopKResp is a topk answer with its sections in the reverse of
// the encoder's order: decoders look a section up by kind, so it decodes
// like AppendTopKResp's.
func reorderedTopKResp(st core.QueryStats, frag []core.ShardCand) []byte {
	dst, m := beginFrame(nil, MsgTopKResp)
	dst = appendSecHdr(dst, &m, kindCands, candSize, len(frag))
	dst = appendCandsPayload(dst, frag)
	dst = appendSecHdr(dst, &m, kindStats, 8, statsWords)
	dst = appendStatsPayload(dst, st)
	dst = appendParams(dst, &m, 42, 0, 0)
	return endFrame(dst, m)
}

// TestCommittedSeedsParse: every committed FuzzWireDecode seed that is
// not deliberately broken (named truncated or bitflip) is a whole frame of
// this Version, so a protocol change cannot leave the corpus stopping at
// Parse's version check and reaching no decoder.
func TestCommittedSeedsParse(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzWireDecode/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed seeds: %v", err)
	}
	for _, p := range paths {
		name := filepath.Base(p)
		if strings.Contains(name, "truncated") || strings.Contains(name, "bitflip") {
			continue
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		body, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(body, ")") {
			t.Fatalf("%s: not a one-[]byte corpus file", name)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(body, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var f Frame
		if err := f.Parse([]byte(data)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
