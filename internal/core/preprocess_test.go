package core

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/graph"
)

// preprocessCRC is the CRC-32C of everything the preprocess produces: the
// γ table (float32 bits) followed by the four candidate-index arrays, all
// little-endian.
func preprocessCRC(e *Engine) uint32 {
	h := crc32.New(persistCRCTable)
	var b [4]byte
	put := func(x uint32) {
		binary.LittleEndian.PutUint32(b[:], x)
		h.Write(b[:])
	}
	for _, x := range e.gamma {
		put(math.Float32bits(x))
	}
	for _, xs := range [][]uint32{e.idx.rightStart, e.idx.rightAdj, e.idx.leftStart, e.idx.leftAdj} {
		for _, x := range xs {
			put(x)
		}
	}
	return h.Sum32()
}

// TestPreprocessBytesPinned pins the preprocess output bit for bit, for a
// web-like and a social-like graph at several worker counts: the CRCs were
// recorded from the scalar one-walk-at-a-time index builder over
// contiguous per-worker vertex ranges, so the lane kernel and the chunked
// schedule must reproduce every draw, γ entry and index row. n = 3001 is
// divisible neither by the lane width nor by the chunk size.
func TestPreprocessBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want uint32
	}{
		{"social", graph.PreferentialAttachment(3001, 10, 0.4, 7), 0xc93e3d3f},
		{"web", graph.CopyingModel(3001, 8, 0.3, 7), 0xe59ea2ea},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 3, 8} {
			p := DefaultParams()
			p.Workers = workers
			if got := preprocessCRC(Build(c.g, p)); got != c.want {
				t.Errorf("%s workers=%d: preprocess CRC-32C %#08x, want %#08x", c.name, workers, got, c.want)
			}
		}
	}
}
