package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

// sampleFrag exercises every state and some awkward float bit patterns:
// negative zero, subnormals, and values that do not round-trip through
// short decimal formatting.
func sampleFrag() []core.ShardCand {
	return []core.ShardCand{
		{V: 0, UB: 1, State: core.ShardScored, Rough: 0.1 + 0.2, Score: 0.30000000000000004},
		{V: 41, UB: 0.6, State: core.ShardScoredNoRough, Score: math.Nextafter(0.6, 1)},
		{V: 7, UB: math.Copysign(0, -1), State: core.ShardRoughPruned, Rough: 5e-324},
		{V: 1 << 31, UB: 0.009999999999999998, State: core.ShardUnscored},
	}
}

func sampleStats() core.QueryStats {
	return core.QueryStats{Candidates: 120, PrunedByBound: 60, PrunedByRough: 10, Refined: 50, CacheHits: 3, CacheMisses: 47, CacheEvictions: 1}
}

func parse(t *testing.T, data []byte) *Frame {
	t.Helper()
	var f Frame
	if err := f.Parse(data); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return &f
}

func sameFrag(t *testing.T, got, want []core.ShardCand) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fragment length %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		// Compare the bit patterns, not the float values: -0 vs +0 and
		// NaN payloads must survive exactly.
		if g.V != w.V || g.State != w.State ||
			math.Float64bits(g.UB) != math.Float64bits(w.UB) ||
			math.Float64bits(g.Rough) != math.Float64bits(w.Rough) ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("row %d: got %+v, want %+v", i, g, w)
		}
	}
}

func TestTopKReqRoundTrip(t *testing.T) {
	in := TopKReq{U: 42, Lo: 0, Hi: 2000}
	f := parse(t, AppendTopKReq(nil, in))
	out, err := f.TopKReq()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

func TestSimilarReqRoundTrip(t *testing.T) {
	in := SimilarReq{U: 9, Lo: 3, Hi: 77, Theta: 0.01}
	f := parse(t, AppendSimilarReq(nil, in))
	out, err := f.SimilarReq()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.U != in.U || out.Lo != in.Lo || out.Hi != in.Hi ||
		math.Float64bits(out.Theta) != math.Float64bits(in.Theta) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

func TestTopKRespRoundTrip(t *testing.T) {
	in := TopKResp{Query: 42, Shard: 2, ElapsedUS: 1234, Stats: sampleStats(), Frag: sampleFrag()}
	f := parse(t, AppendTopKResp(nil, &in))
	var out TopKResp
	if err := f.TopKResp(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Query != in.Query || out.Shard != in.Shard || out.ElapsedUS != in.ElapsedUS || out.Stats != in.Stats {
		t.Fatalf("header: got %+v, want %+v", out, in)
	}
	sameFrag(t, out.Frag, in.Frag)
}

func TestErrorRoundTrip(t *testing.T) {
	f := parse(t, AppendError(nil, 503, "not_ready", "index still loading"))
	err := f.Err()
	var we *Error
	if !errors.As(err, &we) {
		t.Fatalf("decoded %T, want *Error", err)
	}
	if we.Status != 503 || we.Code != "not_ready" || we.Msg != "index still loading" {
		t.Fatalf("got %+v", we)
	}
}

// TestDecodeIntoReuses checks the pooled-decode contract: decoding into
// a previously used receiver must not allocate when capacity suffices.
func TestDecodeIntoReuses(t *testing.T) {
	in := TopKResp{Query: 1, Stats: sampleStats(), Frag: sampleFrag()}
	data := AppendTopKResp(nil, &in)
	var f Frame
	var out TopKResp
	if err := f.Parse(data); err != nil {
		t.Fatal(err)
	}
	if err := f.TopKResp(&out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.Parse(data); err != nil {
			t.Fatal(err)
		}
		if err := f.TopKResp(&out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocated %.1f times per op, want 0", allocs)
	}
}

// TestAppendPreservesPrefix checks the append contract: encoding into a
// buffer with existing content leaves that content alone and produces a
// frame parseable from the appended offset.
func TestAppendPreservesPrefix(t *testing.T) {
	prefix := []byte("junk")
	data := AppendTopKReq(append([]byte(nil), prefix...), TopKReq{U: 3, Hi: 10})
	if !bytes.HasPrefix(data, prefix) {
		t.Fatal("prefix clobbered")
	}
	f := parse(t, data[len(prefix):])
	if got, err := f.TopKReq(); err != nil || got.U != 3 {
		t.Fatalf("decode after prefix: %+v, %v", got, err)
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	valid := AppendTopKResp(nil, &TopKResp{Query: 1, Stats: sampleStats(), Frag: sampleFrag()})

	corrupt := func(name string, mutate func([]byte) []byte) {
		data := mutate(append([]byte(nil), valid...))
		var f Frame
		if err := f.Parse(data); err == nil {
			t.Errorf("%s: Parse accepted corrupt frame", name)
		}
	}

	for cut := 1; cut < len(valid); cut++ {
		data := valid[:cut]
		var f Frame
		if err := f.Parse(data); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	corrupt("bad version", func(b []byte) []byte { b[4] = 99; return b })
	corrupt("version 1", func(b []byte) []byte { b[4] = 1; return rechecksum(b) })
	corrupt("payload bit flip", func(b []byte) []byte { b[headerLen+3] ^= 0x10; return b })
	corrupt("crc bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
	corrupt("section count up", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[6:], 60000)
		return rechecksum(b)
	})
	corrupt("section count down", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[6:], 1)
		return rechecksum(b)
	})
	corrupt("oversized element count", func(b []byte) []byte {
		// First section header sits right after the frame header; blow up
		// its count field far past the bytes present.
		binary.LittleEndian.PutUint32(b[headerLen+4:], 1<<30)
		return rechecksum(b)
	})
	corrupt("payload length too large", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], uint32(MaxFrameLen+1))
		return rechecksum(b)
	})
	corrupt("payload length mismatch", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], uint32(len(b)))
		return rechecksum(b)
	})
}

// TestDecoderRejectsWrongShape: structurally valid frames whose
// sections do not satisfy a message's invariants must fail that
// message's decoder.
func TestDecoderRejectsWrongShape(t *testing.T) {
	var out TopKResp
	f := parse(t, AppendTopKReq(nil, TopKReq{U: 1}))
	if err := f.TopKResp(&out); err == nil {
		t.Fatal("TopKResp decoded a TopKReq frame")
	}
	if _, err := f.SimilarReq(); err == nil {
		t.Fatal("SimilarReq decoded a TopKReq frame")
	}

	// A topk answer whose stats section is not statsWords counters long
	// must be rejected, not half-read.
	dst, m := beginFrame(nil, MsgTopKResp)
	dst = appendParams(dst, &m, 1, 0, 0)
	dst = appendSecHdr(dst, &m, kindStats, 8, statsWords-1)
	for i := 0; i < statsWords-1; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, 0)
	}
	dst = appendSecHdr(dst, &m, kindCands, candSize, 0)
	if err := parse(t, endFrame(dst, m)).TopKResp(&out); err == nil {
		t.Fatalf("TopKResp accepted %d stats words", statsWords-1)
	}
}

func TestReadFrame(t *testing.T) {
	a := AppendTopKReq(nil, TopKReq{U: 7, Hi: 50})
	b := AppendError(nil, 400, "bad_request", "u out of range")
	stream := bytes.NewReader(append(append([]byte(nil), a...), b...))

	buf := GetBuf()
	defer PutBuf(buf)
	var f Frame

	first, err := ReadFrame(stream, buf)
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if err := f.Parse(first); err != nil {
		t.Fatalf("first parse: %v", err)
	}
	if req, err := f.TopKReq(); err != nil || req.U != 7 {
		t.Fatalf("first decode: %+v, %v", req, err)
	}

	second, err := ReadFrame(stream, buf)
	if err != nil {
		t.Fatalf("second frame: %v", err)
	}
	if err := f.Parse(second); err != nil {
		t.Fatalf("second parse: %v", err)
	}
	if f.Type != MsgError {
		t.Fatalf("second frame type %d, want MsgError", f.Type)
	}

	if _, err := ReadFrame(stream, buf); err != io.EOF {
		t.Fatalf("exhausted stream: %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	buf := GetBuf()
	defer PutBuf(buf)
	if _, err := ReadFrame(bytes.NewReader([]byte("GET / HTTP/1.1\r\n")), buf); err == nil {
		t.Fatal("accepted a non-frame stream")
	}
	// Valid header but hostile length: must fail on the prefix itself, as
	// a frame error, before growing buf to the length it claims. Without
	// the guard the read still fails (the stream ends), but only after
	// allocating the claimed size.
	hostile := AppendTopKReq(nil, TopKReq{})
	binary.LittleEndian.PutUint32(hostile[8:], uint32(MaxFrameLen+1))
	var hb Buf
	if _, err := ReadFrame(bytes.NewReader(hostile), &hb); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized length prefix: err %v, want ErrFrame", err)
	}
	if cap(hb.B) > len(hostile) {
		t.Fatalf("oversized length prefix grew the buffer to %d bytes before failing", cap(hb.B))
	}
	// Truncated mid-payload: io error, not a hang or panic.
	ok := AppendTopKReq(nil, TopKReq{U: 1})
	if _, err := ReadFrame(bytes.NewReader(ok[:len(ok)-2]), buf); err == nil {
		t.Fatal("accepted a truncated stream")
	}
}

func rechecksum(b []byte) []byte {
	body := len(b) - trailerLen
	binary.LittleEndian.PutUint32(b[body:], crc32.Checksum(b[:body], crcTable))
	return b
}

// TestStatsWordsCoversQueryStats: the frame carries statsWords counters
// per query, listed by statsFields; a counter added to core.QueryStats
// must be added to both (the round trip of every field is checked from
// the router, which reads both encodings).
func TestStatsWordsCoversQueryStats(t *testing.T) {
	if n := reflect.TypeOf(core.QueryStats{}).NumField(); n != statsWords {
		t.Fatalf("core.QueryStats has %d fields, the frame carries %d (statsWords, statsFields)", n, statsWords)
	}
}
