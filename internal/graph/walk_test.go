package graph

import (
	"testing"

	"repro/internal/rng"
)

// referenceStep is the plain uniform step: in[rng.Uint32n(deg)]. Every
// WalkTable kernel must be byte-compatible with it.
func referenceStep(g *Graph, r *rng.Source, v uint32) uint32 {
	in := g.In(v)
	if len(in) == 0 {
		return NoVertex
	}
	return in[r.Uint32n(uint32(len(in)))]
}

func TestWalkTableTrivialUniform(t *testing.T) {
	g := ErdosRenyi(500, 4, 11)
	wt := g.BuildWalkTable()

	// A one-step walk must consume rng draws identically to the reference
	// kernel.
	ra, rb := rng.New(42), rng.New(42)
	var out [2]uint32
	for i := 0; i < 50000; i++ {
		v := uint32(i % g.N())
		wt.WalkStrided(ra, v, 1, 1, out[:])
		if want := referenceStep(g, rb, v); out[1] != want {
			t.Fatalf("step %d from %d: walk table picked %d, reference %d", i, v, out[1], want)
		}
	}
	if ra.Uint64() != rb.Uint64() {
		t.Fatal("walk table and reference consumed different draw counts")
	}
}

func TestStepWalksMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *Graph
		walks int
		// redraws: the hub of in-degree 2²⁰+1 rejects about one draw
		// in 4100 (see rejectionTable), so a batch this long must reach
		// Lemire's redraw loop in the draw pass.
		redraws bool
	}{
		{"erdosrenyi", ErdosRenyi(300, 3, 5), 2500, false}, // > StepLane so chunking is exercised
		{"citation", CitationDAG(400, 4, 3), 2500, false},  // dangling-heavy: many walks die
		{"star", Star(64), 2500, false},
		{"redraw", Star(1<<20 + 2), 5000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			wt := g.BuildWalkTable()
			pos := make([]uint32, tc.walks)
			ref := make([]uint32, tc.walks)
			for i := range pos {
				v := uint32(i % g.N())
				if tc.redraws && i%2 == 0 {
					v = 0 // the hub: every step has hub draws
				}
				pos[i], ref[i] = v, v
			}
			lane := make([]uint64, 2*StepLane)
			ra, rb := rng.New(7), rng.New(7)
			plain := *rng.New(7) // one draw per live walk step, no redraw
			for step := 0; step < 12; step++ {
				alive := wt.StepWalks(ra, pos, lane)
				refAlive := 0
				for _, v := range ref {
					if v != NoVertex && len(g.In(v)) > 0 {
						plain.Uint32()
					}
				}
				for i, v := range ref {
					if v == NoVertex {
						continue
					}
					ref[i] = referenceStep(g, rb, v)
					if ref[i] != NoVertex {
						refAlive++
					}
				}
				if alive != refAlive {
					t.Fatalf("step %d: alive=%d, reference %d", step, alive, refAlive)
				}
				for i := range pos {
					if pos[i] != ref[i] {
						t.Fatalf("step %d walk %d: batched kernel at %d, reference at %d", step, i, pos[i], ref[i])
					}
				}
			}
			if *ra != *rb {
				t.Fatal("batched kernel and reference consumed different draw counts")
			}
			if tc.redraws && *ra == plain {
				t.Fatal("no draw was redrawn, the fixture no longer reaches the rejection loop")
			}
		})
	}
}

func TestStepWalksDeadConsumeNothing(t *testing.T) {
	// Vertex 0 has no in-edges, so every walk parked there dies.
	gg := FromEdges(3, []Edge{{0, 1}, {0, 2}})
	wt := gg.BuildWalkTable()
	pos := []uint32{0, NoVertex, 0}
	lane := make([]uint64, 2*len(pos))
	r := rng.New(9)
	before := *r
	if alive := wt.StepWalks(r, pos, lane); alive != 0 {
		t.Fatalf("alive = %d, want 0", alive)
	}
	if *r != before {
		t.Fatal("dead walks consumed rng draws")
	}
	for i, v := range pos {
		if v != NoVertex {
			t.Fatalf("walk %d still at %d", i, v)
		}
	}
}

// TestWalkMatchesNextLoop: a unit-stride walk must visit exactly the
// vertices a loop of reference steps visits.
func TestWalkMatchesNextLoop(t *testing.T) {
	g := PreferentialAttachment(300, 4, 0.3, 13)
	wt := g.BuildWalkTable()
	const T = 10
	out := make([]uint32, T+1)
	ref := make([]uint32, T+1)
	ra, rb := rng.New(3), rng.New(3)
	for u := uint32(0); u < 50; u++ {
		out[0] = u
		wt.WalkStrided(ra, u, T, 1, out)
		ref[0] = u
		v := u
		for t2 := 1; t2 <= T; t2++ {
			if v != NoVertex {
				v = referenceStep(g, rb, v)
			}
			ref[t2] = v
		}
		for t2 := range out {
			if out[t2] != ref[t2] {
				t.Fatalf("walk from %d diverges at step %d: %d vs %d", u, t2, out[t2], ref[t2])
			}
		}
	}
}

// TestWalkStridedMatchesNextLoop: a strided walk must match a loop of
// reference steps, draw for draw, and write nothing off its stride.
func TestWalkStridedMatchesNextLoop(t *testing.T) {
	g := CitationDAG(300, 4, 17) // dangling-heavy: exercises death
	wt := g.BuildWalkTable()
	const T, stride = 8, 5
	out := make([]uint32, T*stride+1)
	ra, rb := rng.New(21), rng.New(21)
	for u := uint32(0); u < 60; u++ {
		for i := range out {
			out[i] = 0xdeadbeef
		}
		wt.WalkStrided(ra, u, T, stride, out)
		v := u
		for t2 := 1; t2 <= T; t2++ {
			if v != NoVertex {
				v = referenceStep(g, rb, v)
			}
			if out[t2*stride] != v {
				t.Fatalf("strided walk from %d diverges at step %d: %d vs %d", u, t2, out[t2*stride], v)
			}
		}
		for i, x := range out {
			if i%stride == 0 && i > 0 {
				continue
			}
			if x != 0xdeadbeef {
				t.Fatalf("strided walk from %d wrote off-stride slot %d", u, i)
			}
		}
	}
	if ra.Uint64() != rb.Uint64() {
		t.Fatal("strided walk and reference consumed different draw counts")
	}
}

// laneFixture is a walk table, the vertices its lanes start from and the
// batch shape to run on it.
type laneFixture struct {
	name string
	wt   *WalkTable
	// start is lane l's start vertex in a batch of k lanes: derived, not
	// listed, so every width up to MaxWalkLanes — ragged ones too — gets
	// a mix of starts.
	start    func(k, l int) uint32
	T, walks int
	// rejects: no walk dies and the batch is long enough that some lane
	// must hit the Lemire rejection loop.
	rejects bool
	// dieBy: every walk of every lane is dead after this many steps
	// (< T), so WalkLanes must take its all-dead exit; 0 when not.
	dieBy int
}

// rejectionTable is a four-vertex table built by hand: the hub's row has
// d = 2²⁰+1 slots cycling through three leaves whose only in-neighbour
// is the hub, so every other step draws against a bound whose Lemire
// rejection region is 2³² mod d ≈ d wide — about one hub draw in 4100
// is rejected and redrawn.
func rejectionTable() *WalkTable {
	const d = 1<<20 + 1
	adj := make([]uint32, d+3)
	for k := range adj[:d] {
		adj[k] = 1 + uint32(k%3)
	}
	return &WalkTable{start: []uint32{0, d, d + 1, d + 2, d + 3}, adj: adj}
}

// shallowGraph is a four-vertex DAG whose in-links all come from higher
// ids: 0 ← {1, 2, 3}, 1 ← {2, 3}, 2 ← {3}, and 3 has none. A walk draws
// against degrees 3, 2 and 1 on its way and is dead after at most four
// steps, whatever it draws.
func shallowGraph() *Graph {
	return FromEdges(4, []Edge{{1, 0}, {2, 0}, {3, 0}, {2, 1}, {3, 1}, {3, 2}})
}

func laneFixtures(t *testing.T) []laneFixture {
	dag := CitationDAG(300, 4, 17) // dangling-heavy: walks die; nobody cites the newest paper
	if len(dag.In(299)) != 0 || len(dag.In(0)) == 0 {
		t.Fatal("fixture: vertex 299 should have no in-links and vertex 0 some")
	}
	return []laneFixture{
		{"trivial", dag.BuildWalkTable(), func(k, l int) uint32 {
			if l%3 == 1 {
				return 299 // dead at once
			}
			return uint32(l*97+k*31) % 299
		}, 12, 9, false, 0},
		{"rejection", rejectionTable(), func(k, l int) uint32 { return uint32(k+l) % 4 }, 200, 90, true, 0},
		{"all-dead", shallowGraph().BuildWalkTable(), func(k, l int) uint32 { return uint32(k*l) % 4 }, 9, 7, false, 4},
	}
}

// TestWalkLanesMatchesWalkStrided: for every lane count, each lane's
// positions and final generator state must be those of running its walks
// alone through WalkStrided — also when the batch is split in two calls
// and the second continues from the state the first left.
func TestWalkLanesMatchesWalkStrided(t *testing.T) {
	const untouched = 0xdeadbeef
	for _, fx := range laneFixtures(t) {
		T, walks := fx.T, fx.walks
		stride, split := walks+2, walks/2
		for k := 1; k <= MaxWalkLanes; k++ {
			lanes := make([]WalkLane, k)
			refs := make([][]uint32, k)
			refRng := make([]rng.Source, k)
			for l := range lanes {
				lanes[l].Start = fx.start(k, l)
				lanes[l].Rng.Seed(uint64(100*k + l))
				lanes[l].Out = make([]uint32, (T+1)*stride)
				refs[l] = make([]uint32, (T+1)*stride)
				for i := range refs[l] {
					lanes[l].Out[i], refs[l][i] = untouched, untouched
				}
				refRng[l].Seed(uint64(100*k + l))
				for i := 0; i < walks; i++ {
					fx.wt.WalkStrided(&refRng[l], lanes[l].Start, T, stride, refs[l][i:])
				}
			}
			fx.wt.WalkLanes(lanes, 0, split, T, stride)
			fx.wt.WalkLanes(lanes, split, walks, T, stride)
			redrew := false
			for l := range lanes {
				for i, want := range refs[l] {
					if got := lanes[l].Out[i]; got != want {
						t.Fatalf("%s lanes=%d lane %d: step %d walk %d at %d, alone at %d", fx.name, k, l, i/stride, i%stride, got, want)
					}
				}
				if lanes[l].Rng != refRng[l] {
					t.Fatalf("%s lanes=%d lane %d: generator state differs from the walk-alone stream", fx.name, k, l)
				}
				if fx.rejects {
					// One draw a step when nothing is rejected.
					var plain rng.Source
					plain.Seed(uint64(100*k + l))
					for i := 0; i < T*walks; i++ {
						plain.Uint32()
					}
					redrew = redrew || plain != lanes[l].Rng
				}
			}
			if fx.rejects && k == MaxWalkLanes && !redrew {
				t.Fatalf("%s: no lane redrew, the fixture no longer reaches the rejection loop", fx.name)
			}
		}
	}
}

// TestWalkLanesAllDead: when every lane's walk dies before step T, the
// rows after its death are NoVertex, the exit consumes no draw, and the
// next walk of every lane starts from the generator state its walks so
// far would leave alone — checked after each walk, one call a walk.
func TestWalkLanesAllDead(t *testing.T) {
	fx := laneFixtures(t)[2]
	T, walks := fx.T, fx.walks
	for _, k := range []int{2, 7, 8, 13, MaxWalkLanes} {
		lanes := make([]WalkLane, k)
		ref := make([]uint32, (T+1)*walks)
		refRng := make([]rng.Source, k)
		for l := range lanes {
			lanes[l].Start = fx.start(k, l)
			lanes[l].Rng.Seed(uint64(k + l))
			lanes[l].Out = make([]uint32, (T+1)*walks)
			refRng[l].Seed(uint64(k + l))
		}
		for i := 0; i < walks; i++ {
			fx.wt.WalkLanes(lanes, i, i+1, T, walks)
			for l := range lanes {
				fx.wt.WalkStrided(&refRng[l], lanes[l].Start, T, walks, ref[i:])
				if lanes[l].Rng != refRng[l] {
					t.Fatalf("lanes=%d lane %d walk %d: generator state differs from the walk-alone stream", k, l, i)
				}
				for step := 1; step <= T; step++ {
					got, want := lanes[l].Out[step*walks+i], ref[step*walks+i]
					if got != want || step > fx.dieBy && got != NoVertex {
						t.Fatalf("lanes=%d lane %d walk %d step %d at %d, alone at %d", k, l, i, step, got, want)
					}
				}
			}
		}
	}
}

// A lane parked on a vertex without in-links dies at once and must not
// consume a draw, whatever its neighbours do.
func TestWalkLanesDeadConsumeNothing(t *testing.T) {
	fx := laneFixtures(t)[0]
	lanes := make([]WalkLane, 3)
	for l, v := range []uint32{0, 299, 150} {
		lanes[l].Start = v
		lanes[l].Rng.Seed(uint64(l))
		lanes[l].Out = make([]uint32, 6*4)
	}
	before := lanes[1].Rng
	fx.wt.WalkLanes(lanes, 0, 4, 5, 4)
	if lanes[1].Rng != before {
		t.Fatal("a dead lane consumed rng draws")
	}
	for i, v := range lanes[1].Out[4:] {
		if v != NoVertex {
			t.Fatalf("dead lane position %d = %d", i, v)
		}
	}
	if lanes[0].Out[4] == NoVertex {
		t.Fatal("the live neighbour did not walk")
	}
}
