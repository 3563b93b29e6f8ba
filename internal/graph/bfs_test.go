package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestUndirectedDistances(t *testing.T) {
	g := Path(5)
	d := g.UndirectedDistances(4, -1)
	for i := 0; i < 5; i++ {
		if d[i] != int32(4-i) {
			t.Fatalf("undirected dist[%d] = %d", i, d[i])
		}
	}
	// With a cap.
	d = g.UndirectedDistances(4, 2)
	if d[2] != 2 || d[1] != Unreachable || d[0] != Unreachable {
		t.Fatalf("capped distances wrong: %v", d)
	}
}

func TestUndirectedBallMatchesFull(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(30)
		g := ErdosRenyi(n, 2*n, seed)
		src := uint32(r.Intn(n))
		maxD := 1 + r.Intn(4)
		full := g.UndirectedDistances(src, maxD)
		ball := g.UndirectedBall(src, maxD)
		for v, d := range full {
			bd, ok := ball[uint32(v)]
			if d == Unreachable {
				if ok {
					return false
				}
				continue
			}
			if !ok || bd != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUndirectedBallBudget(t *testing.T) {
	g := Grid(20, 20) // 400 vertices, uniform expansion
	full, trunc := g.UndirectedBallBudget(0, 50, -1)
	if trunc {
		t.Fatal("unlimited budget reported truncation")
	}
	if len(full) != 400 {
		t.Fatalf("full ball size %d", len(full))
	}
	capped, trunc := g.UndirectedBallBudget(0, 50, 50)
	if !trunc {
		t.Fatal("capped ball did not report truncation")
	}
	if len(capped) > 60 { // budget plus one frontier expansion
		t.Fatalf("capped ball size %d", len(capped))
	}
	// Distances in the capped ball are exact.
	for v, d := range capped {
		if full[v] != d {
			t.Fatalf("capped distance for %d is %d, exact %d", v, d, full[v])
		}
	}
	// BFS order means every vertex closer than the max-but-one level is
	// present.
	maxD := int32(0)
	for _, d := range capped {
		if d > maxD {
			maxD = d
		}
	}
	for v, d := range full {
		if d < maxD-1 {
			if _, ok := capped[uint32(v)]; !ok {
				t.Fatalf("vertex %d at distance %d missing from capped ball (maxD %d)", v, d, maxD)
			}
		}
	}
}

// UndirectedBallInto must agree with the map-based UndirectedBallBudget
// on membership, distances, and truncation, and list vertices in
// nondecreasing distance order.
func TestUndirectedBallIntoMatchesMap(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(40)
		g := ErdosRenyi(n, 3*n, seed)
		src := uint32(r.Intn(n))
		maxD := 1 + r.Intn(4)
		budget := -1
		if r.Intn(2) == 0 {
			budget = 1 + r.Intn(n)
		}
		want, wantTrunc := g.UndirectedBallBudget(src, maxD, budget)

		dist := make([]int32, n)
		for i := range dist {
			dist[i] = Unreachable
		}
		ball, trunc := g.UndirectedBallInto(src, maxD, budget, dist, nil)
		if trunc != wantTrunc || len(ball) != len(want) {
			return false
		}
		prev := int32(0)
		for _, v := range ball {
			d, ok := want[v]
			if !ok || dist[v] != d || d < prev {
				return false
			}
			prev = d
		}
		// Untouched entries stay clean.
		touched := map[uint32]bool{}
		for _, v := range ball {
			touched[v] = true
		}
		for v, d := range dist {
			if !touched[uint32(v)] && d != Unreachable {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two triangles, disconnected.
	b := NewBuilder(6)
	for _, e := range []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		b.AddEdge(e.U, e.V)
	}
	g := b.Build()
	comp, count := g.ConnectedComponents()
	if count != 2 {
		t.Fatalf("components = %d, want 2", count)
	}
	if comp[0] != comp[1] || comp[0] != comp[2] {
		t.Fatal("first triangle split")
	}
	if comp[3] != comp[4] || comp[3] != comp[5] {
		t.Fatal("second triangle split")
	}
	if comp[0] == comp[3] {
		t.Fatal("triangles merged")
	}
}

func TestComponentsCountSingletons(t *testing.T) {
	g := NewBuilder(5).Build() // no edges at all
	_, count := g.ConnectedComponents()
	if count != 5 {
		t.Fatalf("components = %d, want 5", count)
	}
}

func TestBFSTriangleInequality(t *testing.T) {
	// Undirected distance must satisfy d(u,w) <= d(u,v) + d(v,w).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 6 + r.Intn(20)
		g := ErdosRenyi(n, 3*n, seed)
		u := uint32(r.Intn(n))
		v := uint32(r.Intn(n))
		du := g.UndirectedDistances(u, -1)
		dv := g.UndirectedDistances(v, -1)
		if du[v] == Unreachable {
			return true
		}
		for w := 0; w < n; w++ {
			if dv[w] == Unreachable {
				continue
			}
			if du[w] == Unreachable || du[w] > du[v]+dv[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
