package graph

import (
	"math"
	"testing"
)

func TestComputeStatsPath(t *testing.T) {
	g := Path(4) // 0->1->2->3
	st := ComputeStats(g, 4, 1)
	if st.N != 4 || st.M != 3 {
		t.Fatalf("n=%d m=%d", st.N, st.M)
	}
	if st.DanglingIn != 1 { // vertex 0 has no in-links
		t.Fatalf("dangling in = %d, want 1", st.DanglingIn)
	}
	if st.DanglingOut != 1 { // vertex 3 has no out-links
		t.Fatalf("dangling out = %d, want 1", st.DanglingOut)
	}
	if st.Components != 1 {
		t.Fatalf("components = %d", st.Components)
	}
	if st.AvgDistance <= 0 {
		t.Fatal("average distance not computed")
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	g := NewBuilder(0).Build()
	st := ComputeStats(g, 10, 1)
	if st.N != 0 || st.AvgDistance != 0 {
		t.Fatalf("unexpected stats for empty graph: %+v", st)
	}
}

func TestSampleAverageDistanceExactOnPath(t *testing.T) {
	// On the path graph with all sources sampled, the average undirected
	// distance over ordered reachable pairs of P_n is (n+1)/3.
	n := 7
	g := Path(n)
	avg, _, sampled, reach := SampleAverageDistance(g, n, 99)
	if sampled != n {
		t.Fatalf("sampled = %d", sampled)
	}
	if reach != n*(n-1) {
		t.Fatalf("reachable pairs = %d, want %d", reach, n*(n-1))
	}
	want := float64(n+1) / 3
	if math.Abs(avg-want) > 1e-9 {
		t.Fatalf("avg distance = %f, want %f", avg, want)
	}
}

func TestSampleAverageDistanceDisconnected(t *testing.T) {
	g := NewBuilder(10).Build() // 10 isolated vertices
	avg, diam, _, reach := SampleAverageDistance(g, 10, 1)
	if avg != 0 || diam != 0 || reach != 0 {
		t.Fatalf("expected zero stats on edgeless graph, got avg=%f diam=%d reach=%d", avg, diam, reach)
	}
}

func TestStatsStringNonEmpty(t *testing.T) {
	st := ComputeStats(Star(4), 0, 0)
	if st.String() == "" {
		t.Fatal("empty string")
	}
}
