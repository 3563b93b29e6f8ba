package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/rng"
)

// testEngine builds an un-preprocessed engine with small defaults.
func testEngine(g *graph.Graph, seed uint64) *Engine {
	p := DefaultParams()
	p.Seed = seed
	p.Workers = 2
	return New(g, p)
}

func TestSinglePairMatchesExactSeries(t *testing.T) {
	// MC estimate must converge to the deterministic truncated series
	// (Proposition 3). Use a large R for a tight check.
	g := graph.PreferentialAttachment(60, 3, 0.3, 3)
	e := testEngine(g, 1)
	d := exact.UniformDiagonal(g.N(), e.p.C)
	r := rng.New(7)
	s := e.getScratch()
	defer e.putScratch(s)
	pairs := [][2]uint32{{1, 2}, {5, 10}, {20, 40}, {0, 59}, {13, 14}}
	for _, pr := range pairs {
		want := exact.SinglePair(g, d, e.p.C, e.p.T, pr[0], pr[1])
		got := e.singlePairR(pr[0], pr[1], 20000, r, s)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("s(%d,%d): MC %v vs exact %v", pr[0], pr[1], got, want)
		}
	}
}

func TestSinglePairClawLeaves(t *testing.T) {
	// On the claw with c = 0.8 and D = (1-c)I, the truncated series for
	// two leaves is Σ_{t odd? } ... — just compare against exact.SinglePair.
	g := graph.Star(4)
	p := DefaultParams()
	p.C = 0.8
	p.Seed = 3
	e := New(g, p)
	d := exact.UniformDiagonal(4, 0.8)
	want := exact.SinglePair(g, d, 0.8, p.T, 1, 2)
	s := e.getScratch()
	defer e.putScratch(s)
	got := e.singlePairR(1, 2, 50000, rng.New(5), s)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("claw leaves: MC %v vs exact %v", got, want)
	}
}

func TestOneSidedEstimatorMatchesExact(t *testing.T) {
	// The query path estimates scores with a pushed u-side walk
	// distribution and fresh v-side walks; it must agree with the
	// deterministic truncated series.
	g := graph.PreferentialAttachment(60, 3, 0.3, 8)
	e := testEngine(g, 2)
	d := exact.UniformDiagonal(g.N(), e.p.C)
	r := rng.New(11)
	s := e.getScratch()
	defer e.putScratch(s)
	for _, pr := range [][2]uint32{{1, 2}, {5, 10}, {20, 40}, {0, 59}} {
		e.pushWalkDistInto(&s.wd, s, pr[0], 1.0/20000)
		got := e.singlePairOneSided(s, &s.wd, pr[1], 5000, r)
		want := exact.SinglePair(g, d, e.p.C, e.p.T, pr[0], pr[1])
		if math.Abs(got-want) > 0.02 {
			t.Errorf("one-sided s(%d,%d): %v vs exact %v", pr[0], pr[1], got, want)
		}
	}
}

func TestOneSidedDeadQuery(t *testing.T) {
	// A query vertex with no in-links has an empty walk distribution
	// after t=0; scores against everything else must be 0.
	g := graph.DirectedStar(5)
	e := testEngine(g, 1)
	r := rng.New(2)
	s := e.getScratch()
	defer e.putScratch(s)
	e.pushWalkDistInto(&s.wd, s, 1, 1.0/100) // leaf: no mass past t=0
	if got := e.singlePairOneSided(s, &s.wd, 2, 100, r); got != 0 {
		t.Fatalf("dead-query score = %v", got)
	}
}

func TestSinglePairDeterministicPerSeed(t *testing.T) {
	g := graph.ErdosRenyi(50, 200, 2)
	e1 := testEngine(g, 9)
	e2 := testEngine(g, 9)
	if a, b := e1.SinglePair(3, 7), e2.SinglePair(3, 7); a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
	e3 := testEngine(g, 10)
	// Different seed should (almost surely) give a different estimate.
	if a, b := e1.SinglePair(3, 7), e3.SinglePair(3, 7); a == b && a != 0 {
		t.Fatalf("different seeds gave identical nonzero estimates %v", a)
	}
}

func TestSinglePairDanglingIsZero(t *testing.T) {
	// Leaves of a directed star have no in-links: their walks die at
	// step 1 and the score with any other vertex is 0.
	g := graph.DirectedStar(6)
	e := testEngine(g, 4)
	if got := e.SinglePairR(1, 2, 500); got != 0 {
		t.Fatalf("dangling pair score = %v, want 0", got)
	}
}

func TestSinglePairCycleIsZero(t *testing.T) {
	// Deterministic walks on a directed cycle never meet from distinct
	// starts.
	g := graph.Cycle(8)
	e := testEngine(g, 4)
	for v := uint32(1); v < 8; v++ {
		if got := e.SinglePairR(0, v, 50); got != 0 {
			t.Fatalf("cycle s(0,%d) = %v, want 0", v, got)
		}
	}
}

func TestSinglePairNonNegativeBounded(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(30)
		g := graph.ErdosRenyi(n, 3*n, seed)
		e := testEngine(g, seed)
		u := uint32(r.Intn(n))
		v := uint32(r.Intn(n))
		s := e.SinglePairR(u, v, 30)
		return s >= 0 && s <= 1.0/(1.0-e.p.C)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkDeath(t *testing.T) {
	g := graph.DirectedStar(4) // leaves dangle
	wt := g.BuildWalkTable()
	r := rng.New(1)
	pos := make([]uint32, 10)
	lane := make([]uint64, 2*len(pos))
	resetWalks(pos, 0)
	if alive := wt.StepWalks(r, pos, lane); alive != 10 { // hub -> some leaf
		t.Fatalf("after 1 step alive = %d", alive)
	}
	if alive := wt.StepWalks(r, pos, lane); alive != 0 { // leaves have no in-links
		t.Fatalf("after 2 steps alive = %d", alive)
	}
	for _, p := range pos {
		if p != Dead {
			t.Fatalf("dead walk left at %d", p)
		}
	}
}

func TestWalkReset(t *testing.T) {
	g := graph.Cycle(5)
	pos := make([]uint32, 4)
	resetWalks(pos, 2)
	g.BuildWalkTable().StepWalks(rng.New(1), pos, make([]uint64, 2*len(pos)))
	resetWalks(pos, 3)
	for _, p := range pos {
		if p != 3 {
			t.Fatalf("reset left position %d", p)
		}
	}
}

func TestSingleWalkRecordsTrajectory(t *testing.T) {
	g := graph.Cycle(5) // in-neighbour of v is v-1 mod 5
	out := make([]uint32, 4)
	out[0] = 3
	g.BuildWalkTable().WalkStrided(rng.New(1), 3, 3, 1, out)
	want := []uint32{3, 2, 1, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("walk = %v, want %v", out, want)
		}
	}
}

func TestSingleWalkDeath(t *testing.T) {
	g := graph.Path(3) // 0->1->2; vertex 0 has no in-links
	out := make([]uint32, 5)
	out[0] = 2
	g.BuildWalkTable().WalkStrided(rng.New(1), 2, 4, 1, out)
	want := []uint32{2, 1, 0, Dead, Dead}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("walk = %v, want %v", out, want)
		}
	}
}
