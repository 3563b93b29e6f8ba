package eval

import (
	"math"
	"testing"
)

func TestPrecisionAtK(t *testing.T) {
	got := Ranking{1, 2, 3, 4}
	want := Ranking{2, 1, 9, 8}
	if p := PrecisionAtK(got, want, 2); p != 1 {
		t.Fatalf("p@2 = %v", p) // {1,2} vs {2,1}
	}
	if p := PrecisionAtK(got, want, 4); p != 0.5 {
		t.Fatalf("p@4 = %v", p) // {1,2,3,4} vs {2,1,9,8} -> 2/4
	}
	if p := PrecisionAtK(got, want, 0); p != 0 {
		t.Fatalf("p@0 = %v", p)
	}
	// k clamps to len(want).
	if p := PrecisionAtK(Ranking{2}, Ranking{2}, 5); p != 1 {
		t.Fatalf("clamped p = %v", p)
	}
	if p := PrecisionAtK(Ranking{}, Ranking{1, 2}, 2); p != 0 {
		t.Fatalf("empty got p = %v", p)
	}
}

func TestNDCGPerfectAndWorst(t *testing.T) {
	rel := map[uint32]float64{1: 3, 2: 2, 3: 1}
	if n := NDCGAtK(Ranking{1, 2, 3}, rel, 3); math.Abs(n-1) > 1e-12 {
		t.Fatalf("perfect NDCG = %v", n)
	}
	worst := NDCGAtK(Ranking{3, 2, 1}, rel, 3)
	if worst >= 1 || worst <= 0 {
		t.Fatalf("reversed NDCG = %v", worst)
	}
	if n := NDCGAtK(Ranking{9, 8}, rel, 2); n != 0 {
		t.Fatalf("irrelevant NDCG = %v", n)
	}
	if n := NDCGAtK(Ranking{1}, map[uint32]float64{}, 3); n != 0 {
		t.Fatalf("empty rel NDCG = %v", n)
	}
}

func TestCollect(t *testing.T) {
	type scored struct {
		V     uint32
		Score float64
	}
	r := Collect([]scored{{5, 0.9}, {3, 0.1}}, func(s scored) uint32 { return s.V })
	if len(r) != 2 || r[0] != 5 || r[1] != 3 {
		t.Fatalf("Collect = %v", r)
	}
}
