package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/rng"
)

// buildSmall builds a preprocessed engine over a small random graph.
func buildSmall(t *testing.T, n int, seed uint64) (*Engine, *graph.Graph) {
	t.Helper()
	g := graph.PreferentialAttachment(n, 3, 0.3, seed)
	p := DefaultParams()
	p.Seed = seed
	p.Workers = 2
	p.RAlpha = 2000
	return Build(g, p), g
}

// Proposition 6: the L2 bound dominates the exact truncated score.
// Monte-Carlo noise in γ can make the bound slightly loose or tight, so
// the test allows a small additive slack and requires violations to be
// rare and tiny.
func TestL2BoundDominatesScore(t *testing.T) {
	e, g := buildSmall(t, 80, 3)
	d := exact.UniformDiagonal(g.N(), e.p.C)
	r := rng.New(5)
	violations := 0
	for i := 0; i < 100; i++ {
		u := uint32(r.Intn(g.N()))
		v := uint32(r.Intn(g.N()))
		if u == v {
			continue
		}
		s := exact.SinglePair(g, d, e.p.C, e.p.T, u, v)
		ub := e.L2Bound(u, v)
		if s > ub+0.02 {
			violations++
			t.Logf("pair (%d,%d): score %v > L2 bound %v", u, v, s, ub)
		}
	}
	if violations > 3 {
		t.Fatalf("%d/100 pairs violate the L2 bound beyond MC slack", violations)
	}
}

// Proposition 4: β(u, d) dominates the exact truncated score of every
// vertex at distance d.
func TestL1BoundDominatesScore(t *testing.T) {
	e, g := buildSmall(t, 80, 4)
	d := exact.UniformDiagonal(g.N(), e.p.C)
	r := e.queryRNG(0)
	violations, checked := 0, 0
	s := e.getScratch()
	defer e.putScratch(s)
	for _, u := range []uint32{0, 11, 42} {
		dist := s.distBuf()
		s.ball, _ = g.UndirectedBallInto(u, e.p.DMax, -1, dist, s.ball[:0])
		e.sampleWalkDistInto(&s.wd, s, u, e.p.RAlpha, r)
		tbl := e.computeL1From(s, &s.wd, dist, e.p.DMax)
		row := exact.SingleSource(g, d, e.p.C, e.p.T, u)
		for _, v := range s.ball {
			if v == u {
				continue
			}
			dd := dist[v]
			checked++
			if row[v] > tbl.bound(int(dd))+0.02 {
				violations++
				t.Logf("u=%d v=%d d=%d: score %v > beta %v", u, v, dd, row[v], tbl.bound(int(dd)))
			}
		}
		s.resetDist()
	}
	if checked == 0 {
		t.Fatal("no pairs checked")
	}
	if violations*20 > checked {
		t.Fatalf("%d/%d pairs violate the L1 bound beyond MC slack", violations, checked)
	}
}

// The distance bound must dominate the exact truncated score.
func TestDistanceBoundDominatesScore(t *testing.T) {
	g := graph.PreferentialAttachment(80, 3, 0.3, 9)
	p := DefaultParams()
	p.Seed = 9
	e := New(g, p)
	d := exact.UniformDiagonal(g.N(), e.p.C)
	for _, u := range []uint32{0, 5, 33} {
		dist := g.UndirectedDistances(u, -1)
		row := exact.SingleSource(g, d, e.p.C, e.p.T, u)
		for v := 0; v < g.N(); v++ {
			if uint32(v) == u || dist[v] < 0 {
				continue
			}
			if row[v] > e.DistanceBound(int(dist[v]))+1e-12 {
				t.Fatalf("u=%d v=%d d=%d: score %v > distance bound %v",
					u, v, dist[v], row[v], e.DistanceBound(int(dist[v])))
			}
		}
	}
}

func TestDistanceBoundMonotone(t *testing.T) {
	e := New(graph.Star(4), DefaultParams())
	prev := e.DistanceBound(0)
	if prev != 1 {
		t.Fatalf("DistanceBound(0) = %v", prev)
	}
	for d := 1; d < 12; d++ {
		b := e.DistanceBound(d)
		if b > prev+1e-15 {
			t.Fatalf("bound not monotone at d=%d: %v > %v", d, b, prev)
		}
		prev = b
	}
}

func TestGammaTableShape(t *testing.T) {
	e, g := buildSmall(t, 50, 6)
	if len(e.gamma) != g.N()*e.p.T {
		t.Fatalf("gamma table length %d, want %d", len(e.gamma), g.N()*e.p.T)
	}
	// γ(v, 0) = sqrt(D_vv): walks have not moved at t = 0.
	want := math.Sqrt(1 - e.p.C)
	for v := uint32(0); int(v) < g.N(); v++ {
		if math.Abs(e.Gamma(v, 0)-want) > 1e-6 {
			t.Fatalf("gamma(%d,0) = %v, want %v", v, e.Gamma(v, 0), want)
		}
	}
}

func TestGammaDanglingDecaysToZero(t *testing.T) {
	// On a directed star, all walks die by step 2; gamma must be 0 there.
	g := graph.DirectedStar(5)
	p := DefaultParams()
	p.Workers = 1
	e := Build(g, p)
	for v := uint32(0); v < 5; v++ {
		if got := e.Gamma(v, 3); got != 0 {
			t.Fatalf("gamma(%d,3) = %v, want 0", v, got)
		}
	}
}

func TestL2BoundSymmetricInputs(t *testing.T) {
	e, _ := buildSmall(t, 40, 8)
	if a, b := e.L2Bound(3, 9), e.L2Bound(9, 3); math.Abs(a-b) > 1e-12 {
		t.Fatalf("L2 bound asymmetric: %v vs %v", a, b)
	}
}

func TestL1TableOutOfRange(t *testing.T) {
	var tbl *l1Table
	if !math.IsInf(tbl.bound(3), 1) {
		t.Fatal("nil table must return +Inf")
	}
	tbl = &l1Table{beta: []float64{1, 0.5, 0.25}}
	if !math.IsInf(tbl.bound(5), 1) || !math.IsInf(tbl.bound(-1), 1) {
		t.Fatal("out-of-range distances must return +Inf")
	}
	if tbl.bound(1) != 0.5 {
		t.Fatal("in-range bound wrong")
	}
}

func TestL1BoundPublicAPI(t *testing.T) {
	e, _ := buildSmall(t, 40, 12)
	b := e.L1Bound(0, 1)
	if b < 0 || math.IsNaN(b) {
		t.Fatalf("L1Bound = %v", b)
	}
}

func TestCustomDiagonalChangesBounds(t *testing.T) {
	g := graph.PreferentialAttachment(30, 3, 0.3, 2)
	p := DefaultParams()
	p.Workers = 1
	p.D = make([]float64, g.N())
	for i := range p.D {
		p.D[i] = 1.0 // max possible D
	}
	e := Build(g, p)
	// gamma(v,0) = sqrt(1) = 1 now.
	if math.Abs(e.Gamma(3, 0)-1) > 1e-6 {
		t.Fatalf("gamma with custom D = %v, want 1", e.Gamma(3, 0))
	}
	// Distance bound scales by maxD/(1-c).
	def := New(g, DefaultParams())
	if e.DistanceBound(2) <= def.DistanceBound(2) {
		t.Fatal("distance bound did not scale with larger D")
	}
}

// The per-snapshot DistanceBound table must hold the bits of the formula
// it replaced, for the default D and a custom one, inside and beyond DMax.
func TestDistanceBoundTableMatchesFormula(t *testing.T) {
	g := graph.Cycle(12)
	custom := make([]float64, g.N())
	for i := range custom {
		custom[i] = 0.3 + 0.05*float64(i%7)
	}
	for _, D := range [][]float64{nil, custom} {
		p := DefaultParams()
		p.C = 0.7
		p.DMax = 9
		p.D = D
		e := New(g, p)
		maxD := 1 - e.p.C
		if D != nil {
			maxD = slices.Max(D)
		}
		for d := -1; d <= 3*p.DMax; d++ {
			want := 1.0
			if d > 0 {
				want = maxD / (1 - e.p.C) * math.Pow(e.p.C, float64((d+1)/2))
			}
			if got := e.DistanceBound(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("custom D=%v d=%d: DistanceBound %x, formula %x", D != nil, d, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}
