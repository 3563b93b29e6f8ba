package wire

import (
	"testing"

	"repro/internal/core"
)

// BenchmarkWireCodec measures one encode+parse+decode round trip of a
// realistic top-k shard response (256 candidate rows) with pooled
// buffers — the steady-state per-query codec cost on the fan-out path.
func BenchmarkWireCodec(b *testing.B) {
	frag := make([]core.ShardCand, 256)
	for i := range frag {
		frag[i] = core.ShardCand{
			V:     uint32(i * 7),
			UB:    1 / float64(i+1),
			State: core.ShardScored,
			Rough: 0.5 / float64(i+1),
			Score: 0.9 / float64(i+1),
		}
	}
	resp := TopKResp{Query: 42, Shard: 1, ElapsedUS: 900, Stats: core.QueryStats{Candidates: 256, Refined: 200}, Frag: frag}

	buf := GetBuf()
	defer PutBuf(buf)
	var f Frame
	var out TopKResp

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.B = AppendTopKResp(buf.B[:0], &resp)
		if err := f.Parse(buf.B); err != nil {
			b.Fatal(err)
		}
		if err := f.TopKResp(&out); err != nil {
			b.Fatal(err)
		}
	}
	if len(out.Frag) != len(frag) {
		b.Fatalf("decoded %d rows", len(out.Frag))
	}
}
