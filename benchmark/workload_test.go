package main

import (
	"slices"
	"testing"
)

// The first sixteen entries for seed 1 are pinned: a change to the
// generators silently changes every workload, and the baseline with it.
var (
	goldenZipf    = []uint32{98391, 18792, 35761, 42301, 91827, 0, 1308, 52568, 79459, 35761, 0, 29786, 90454, 0, 72830, 95333}
	goldenUniform = []uint32{92996, 83927, 16532, 60536, 77797, 2779, 46291, 88798, 42525, 13492, 10584, 45556, 92993, 10917, 47080, 52223}
)

func TestStreamsAreDeterministic(t *testing.T) {
	for _, c := range []struct {
		name   string
		gen    func(seed uint64) []uint32
		golden []uint32
	}{
		{"zipf", func(seed uint64) []uint32 { return zipfStream(fullN, 4096, 1.1, seed) }, goldenZipf},
		{"uniform", func(seed uint64) []uint32 { return uniformStream(fullN, 4096, seed) }, goldenUniform},
	} {
		a, b, other := c.gen(1), c.gen(1), c.gen(2)
		if !slices.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different streams", c.name)
		}
		if slices.Equal(a, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", c.name)
		}
		if !slices.Equal(a[:16], c.golden) {
			t.Errorf("%s: seed 1 starts %v, want %v", c.name, a[:16], c.golden)
		}
		for _, u := range a {
			if u >= fullN {
				t.Fatalf("%s: vertex %d out of range", c.name, u)
			}
		}
	}
}

// Zipf(1.1) over 100 000 vertices sends about an eighth of the traffic
// to the most popular vertex; the workloads' cache behaviour rests on
// that skew.
func TestZipfIsSkewedAndSpread(t *testing.T) {
	s := zipfStream(fullN, 1<<16, 1.1, 1)
	top := 0
	for _, u := range s {
		if u == popular(0, fullN) {
			top++
		}
	}
	if share := float64(top) / float64(len(s)); share < 0.10 || share > 0.16 {
		t.Errorf("the most popular vertex gets %.3f of the traffic, want about 0.13", share)
	}
	// The rank-to-vertex map is a permutation, so the accuracy sample
	// has no repeats.
	sample := accuracySample(fullN, accuracyVertices)
	seen := make(map[uint32]bool)
	for _, u := range sample {
		if seen[u] {
			t.Fatalf("accuracy sample repeats vertex %d", u)
		}
		seen[u] = true
	}
}

func TestRequestVerticesFollowTheStream(t *testing.T) {
	stream := []uint32{10, 11, 12, 13, 14, 15, 16}
	if got := reqVertices(stream, 1, 3, nil); !slices.Equal(got, []uint32{13}) {
		t.Errorf("single request 3 = %v", got)
	}
	if got := reqVertices(stream, 3, 1, nil); !slices.Equal(got, []uint32{13, 14, 15}) {
		t.Errorf("batch request 1 = %v", got)
	}
	if got := reqVertices(stream, 3, 2, nil); !slices.Equal(got, []uint32{16, 10, 11}) {
		t.Errorf("batch request 2 wraps to %v", got)
	}
}

func TestSmokeScaleShrinksWarmup(t *testing.T) {
	full, smoke := scale{n: fullN, window: 15}, scale{n: 2000, window: 1}
	for _, w := range workloads {
		if full.warmup(w) != w.warmup || full.layerQ(w) != w.layerQ {
			t.Errorf("%s: full scale changes the stated warm-up or layer prefix", w.name)
		}
		if smoke.warmup(w) >= w.warmup || smoke.warmup(w) < 20 {
			t.Errorf("%s: smoke warm-up %d", w.name, smoke.warmup(w))
		}
	}
}
