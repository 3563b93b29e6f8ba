package exact

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestSinglePairSurferClaw(t *testing.T) {
	// Example 1: s(leaf, leaf) = 4/5 at c = 0.8 on the claw.
	g := graph.Star(4)
	got := SinglePairSurfer(g, 0.8, 80, 1, 2)
	if math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("claw leaves: %v, want 0.8", got)
	}
	if got := SinglePairSurfer(g, 0.8, 80, 0, 1); math.Abs(got) > 1e-9 {
		t.Fatalf("hub-leaf: %v, want 0", got)
	}
	if SinglePairSurfer(g, 0.8, 10, 2, 2) != 1 {
		t.Fatal("self pair must be 1")
	}
}

func TestSinglePairSurferMatchesConvergedMatrix(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := graph.ErdosRenyi(20, 60, seed)
		truth := PartialSumsAllPairs(g, 0.6, 50)
		for u := uint32(0); u < 20; u += 3 {
			for v := u + 1; v < 20; v += 4 {
				got := SinglePairSurfer(g, 0.6, 50, u, v)
				want := truth.At(int(u), int(v))
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("seed %d s(%d,%d): surfer %v vs matrix %v", seed, u, v, got, want)
				}
			}
		}
	}
}

func TestSinglePairSurferDangling(t *testing.T) {
	g := graph.DirectedStar(4)
	if got := SinglePairSurfer(g, 0.6, 20, 1, 2); got != 0 {
		t.Fatalf("dangling pair: %v, want 0", got)
	}
}
