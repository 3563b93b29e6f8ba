package exact

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

func TestExactDiagonalSparseClaw(t *testing.T) {
	// Example 1 of the paper: D = diag(23/75, 1/5, 1/5, 1/5) at c = 0.8.
	d, iters, res, err := ExactDiagonalSparse(graph.Star(4), 0.8, DiagOptions{T: 60, MaxIters: 200, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{23.0 / 75.0, 0.2, 0.2, 0.2}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-6 {
			t.Fatalf("D[%d] = %v, want %v (iters=%d res=%v)", i, d[i], want[i], iters, res)
		}
	}
}

func TestExactDiagonalSparseMatchesDense(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := graph.ErdosRenyi(40, 120, seed)
		dense := ExactDiagonal(g, 0.6, 60)
		sparse, _, res, err := ExactDiagonalSparse(g, 0.6, DiagOptions{T: 40, MaxIters: 200, Tol: 1e-9, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range dense {
			if math.Abs(dense[i]-sparse[i]) > 1e-5 {
				t.Fatalf("seed %d: D[%d] dense %v vs sparse %v (res %v)", seed, i, dense[i], sparse[i], res)
			}
		}
	}
}

func TestExactDiagonalSparseBounds(t *testing.T) {
	// Proposition 2: 1−c ≤ D_uu ≤ 1.
	g := graph.PreferentialAttachment(200, 3, 0.3, 5)
	d, _, _, err := ExactDiagonalSparse(g, 0.6, DiagOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range d {
		if v < 1-0.6-1e-4 || v > 1+1e-4 {
			t.Fatalf("D[%d] = %v outside [0.4, 1]", i, v)
		}
	}
}

func TestExactDiagonalSparseSeriesReproducesSimRank(t *testing.T) {
	// Proposition 1 at scale: the series with the sparse exact D equals
	// true SimRank.
	g := graph.ErdosRenyi(30, 90, 9)
	d, _, _, err := ExactDiagonalSparse(g, 0.6, DiagOptions{T: 40, MaxIters: 200, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	sTrue := PartialSumsAllPairs(g, 0.6, 60)
	sSeries := SeriesAllPairs(g, d, 0.6, 60)
	if diff := MaxAbsDiff(sTrue, sSeries); diff > 1e-6 {
		t.Fatalf("series with sparse exact D differs from SimRank by %v", diff)
	}
}

func TestExactDiagonalSparseValidation(t *testing.T) {
	g := graph.ErdosRenyi(10, 20, 1)
	if _, _, _, err := ExactDiagonalSparse(g, 0, DiagOptions{}); err == nil {
		t.Fatal("expected error for c=0")
	}
	if _, _, _, err := ExactDiagonalSparse(g, 1, DiagOptions{}); err == nil {
		t.Fatal("expected error for c=1")
	}
	// Empty graph is fine.
	d, _, _, err := ExactDiagonalSparse(graph.NewBuilder(0).Build(), 0.6, DiagOptions{})
	if err != nil || len(d) != 0 {
		t.Fatalf("empty graph: %v %v", d, err)
	}
}

func TestExactDiagonalSparseDangling(t *testing.T) {
	// Directed star: leaves have no in-links, so S = I exactly and
	// D_uu = 1 − c·(meeting probability of two walks from u).
	// For leaves S row is e_u, D_leaf = 1 - 0 = ... walks from a leaf die
	// immediately: x_t = 0 for t ≥ 1, so M[u][u] = 1 and d_u = 1.
	// For the hub, both walks step to the same leaf with prob 1/(k)…
	// verify against the dense computation rather than hand-derivation.
	g := graph.DirectedStar(5)
	dense := ExactDiagonal(g, 0.6, 40)
	sparse, _, _, err := ExactDiagonalSparse(g, 0.6, DiagOptions{T: 40, MaxIters: 100, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dense {
		if math.Abs(dense[i]-sparse[i]) > 1e-6 {
			t.Fatalf("D[%d]: dense %v vs sparse %v", i, dense[i], sparse[i])
		}
	}
	// Leaves must be exactly 1.
	for v := 1; v < 5; v++ {
		if math.Abs(sparse[v]-1) > 1e-9 {
			t.Fatalf("leaf D[%d] = %v, want 1", v, sparse[v])
		}
	}
}

// TestExactOraclesReproducible: the exact oracles are reference values,
// so a rerun reproduces them bit for bit, whatever the worker count.
func TestExactOraclesReproducible(t *testing.T) {
	g := graph.PreferentialAttachment(200, 3, 0.5, 7)
	diag := func(workers int) []float64 {
		d, _, _, err := ExactDiagonalSparse(g, 0.6, DiagOptions{T: 6, MaxIters: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	pairs := func() []float64 {
		var s []float64
		for v := uint32(1); v <= 12; v++ {
			s = append(s, SinglePairSurfer(g, 0.6, 4, 0, v))
		}
		return s
	}
	wantD, wantS := diag(1), pairs()
	for run := 0; run < 3; run++ {
		if d := diag(1 + run%2); !slices.Equal(d, wantD) {
			t.Fatalf("run %d: ExactDiagonalSparse differs from the first run", run)
		}
		if s := pairs(); !slices.Equal(s, wantS) {
			t.Fatalf("run %d: SinglePairSurfer differs from the first run", run)
		}
	}
}
