package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
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

// The in-degree bound B(v) dominates the exact truncated score of every
// ordered pair u ≠ v, with no slack: it reads only v's in-degree, C, T and
// max D, so nothing in it is sampled. The citation DAG has dangling
// vertices (B = 0), and the last case has a non-uniform D.
func TestDegreeBoundDominatesScore(t *testing.T) {
	const n = 70
	custom := make([]float64, n)
	for i := range custom {
		custom[i] = 0.15 + 0.05*float64(i*7%11)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		D    []float64
	}{
		{"copying", graph.CopyingModel(n, 4, 0.3, 3), nil},
		{"prefattach", graph.PreferentialAttachment(n, 3, 0.3, 3), nil},
		{"citation", graph.CitationDAG(n, 3, 3), nil},
		{"prefattach/customD", graph.PreferentialAttachment(n, 3, 0.3, 4), custom},
	} {
		p := DefaultParams()
		p.D = tc.D
		e := New(tc.g, p)
		d := tc.D
		if d == nil {
			d = exact.UniformDiagonal(n, e.p.C)
		}
		dangling := 0
		for v := uint32(0); v < n; v++ {
			ub := e.DegreeBound(v)
			if tc.g.InDegree(v) == 0 {
				dangling++
				if ub != 0 {
					t.Fatalf("%s v=%d: no in-edge, bound %v", tc.name, v, ub)
				}
			}
			for u := uint32(0); u < n; u++ {
				if u == v {
					continue
				}
				if s := exact.SinglePair(tc.g, d, e.p.C, e.p.T, u, v); s > ub {
					t.Fatalf("%s pair (%d,%d): score %v > degree bound %v (indeg %d)", tc.name, u, v, s, ub, tc.g.InDegree(v))
				}
			}
		}
		if tc.name == "citation" && dangling == 0 {
			t.Fatal("citation DAG fixture has no dangling vertex")
		}
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
	e := New(g, p)
	// Both bounds scale by maxD/(1-c) = 1/0.4.
	def := New(g, DefaultParams())
	if e.DistanceBound(2) <= def.DistanceBound(2) {
		t.Fatal("distance bound did not scale with larger D")
	}
	if got, want := e.DegreeBound(3), def.DegreeBound(3)/(1-def.p.C); math.Abs(got-want) > 1e-12 {
		t.Fatalf("degree bound with D = 1: %v, want %v", got, want)
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
