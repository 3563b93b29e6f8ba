package graph

import (
	"testing"

	"repro/internal/rng"
)

// referenceStep is the pre-alias kernel: uniform pick via rng.Uint32n.
// The WalkTable draw schema must be byte-compatible with it.
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
	if !wt.Trivial() {
		t.Fatal("uniform table should be trivial")
	}
	if p, a := wt.Slots(); p != nil || a != nil {
		t.Fatal("trivial table should carry no slot arrays")
	}

	// Next must consume rng draws identically to the reference kernel.
	ra, rb := rng.New(42), rng.New(42)
	for i := 0; i < 50000; i++ {
		v := uint32(i % g.N())
		got := wt.Next(ra, v)
		want := referenceStep(g, rb, v)
		if got != want {
			t.Fatalf("step %d from %d: alias kernel picked %d, reference %d", i, v, got, want)
		}
	}
	if ra.Uint64() != rb.Uint64() {
		t.Fatal("alias kernel and reference consumed different draw counts")
	}
}

func TestStepWalksMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"erdosrenyi", ErdosRenyi(300, 3, 5)},
		{"citation", CitationDAG(400, 4, 3)}, // dangling-heavy: many walks die
		{"star", Star(64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			wt := g.BuildWalkTable()
			const walks = 2500 // > StepLane so chunking is exercised
			pos := make([]uint32, walks)
			ref := make([]uint32, walks)
			for i := range pos {
				v := uint32(i % g.N())
				pos[i], ref[i] = v, v
			}
			lane := make([]uint64, 2*StepLane)
			ra, rb := rng.New(7), rng.New(7)
			for step := 0; step < 12; step++ {
				alive := wt.StepWalks(ra, pos, lane)
				refAlive := 0
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
			if ra.Uint64() != rb.Uint64() {
				t.Fatal("batched kernel and reference consumed different draw counts")
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

func TestWalkMatchesNextLoop(t *testing.T) {
	g := PreferentialAttachment(300, 4, 0.3, 13)
	wt := g.BuildWalkTable()
	const T = 10
	out := make([]uint32, T+1)
	ref := make([]uint32, T+1)
	ra, rb := rng.New(3), rng.New(3)
	for u := uint32(0); u < 50; u++ {
		wt.Walk(ra, u, T, out)
		ref[0] = u
		v := u
		for t2 := 1; t2 <= T; t2++ {
			if v != NoVertex {
				v = wt.Next(rb, v)
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
				v = wt.Next(rb, v)
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

// aliasRowDistribution computes the exact sampling distribution a table
// row induces: slot j is proposed with probability 1/d and kept with
// probability prob[j]/2^32, else redirected to alias[j].
func aliasRowDistribution(prob, alias []uint32) []float64 {
	d := len(prob)
	dist := make([]float64, d)
	for j := 0; j < d; j++ {
		keep := float64(prob[j]) / (1 << 32)
		if prob[j] == fullProb {
			keep = 1
		}
		dist[j] += keep / float64(d)
		dist[alias[j]] += (1 - keep) / float64(d)
	}
	return dist
}

func TestWeightedWalkTableVose(t *testing.T) {
	g := FromEdges(5, []Edge{{1, 0}, {2, 0}, {3, 0}, {4, 0}, {0, 1}, {2, 1}})
	w := make([]float64, g.M())
	// Vertex 0's in-row (sources 1,2,3,4) gets skewed weights; vertex 1's
	// row (sources 0,2) gets equal weights.
	start, _ := g.InCSR()
	row0 := []float64{0.5, 0.25, 0.2, 0.05}
	copy(w[start[0]:start[1]], row0)
	w[start[1]] = 3
	w[start[1]+1] = 3
	wt, err := BuildWeightedWalkTable(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if wt.Trivial() {
		t.Fatal("weighted table should not be trivial")
	}
	prob, alias := wt.Slots()
	dist := aliasRowDistribution(prob[start[0]:start[1]], alias[start[0]:start[1]])
	for j, want := range row0 {
		if diff := dist[j] - want; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("row 0 slot %d: alias distribution %.9f, want %.9f", j, dist[j], want)
		}
	}
	dist1 := aliasRowDistribution(prob[start[1]:start[2]], alias[start[1]:start[2]])
	for j, p := range dist1 {
		if diff := p - 0.5; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("row 1 slot %d: alias distribution %.9f, want 0.5", j, p)
		}
	}

	// Empirical sanity: sampled frequencies from vertex 0 track the weights.
	r := rng.New(1234)
	counts := make(map[uint32]int)
	const samples = 200000
	for i := 0; i < samples; i++ {
		counts[wt.Next(r, 0)]++
	}
	in := g.In(0)
	for j, src := range in {
		got := float64(counts[src]) / samples
		if diff := got - row0[j]; diff > 0.01 || diff < -0.01 {
			t.Errorf("source %d sampled at %.4f, want %.4f", src, got, row0[j])
		}
	}
}

func TestWeightedWalkTableZeroRowUniform(t *testing.T) {
	g := FromEdges(3, []Edge{{1, 0}, {2, 0}})
	w := []float64{0, 0}
	wt, err := BuildWeightedWalkTable(g, w)
	if err != nil {
		t.Fatal(err)
	}
	prob, alias := wt.Slots()
	for j := range prob {
		if prob[j] != fullProb || alias[j] != uint32(j) {
			t.Fatalf("zero-weight row slot %d: prob=%#x alias=%d, want uniform", j, prob[j], alias[j])
		}
	}
}

func TestBuildWeightedWalkTableErrors(t *testing.T) {
	g := FromEdges(3, []Edge{{1, 0}, {2, 0}})
	if _, err := BuildWeightedWalkTable(g, []float64{1}); err == nil {
		t.Fatal("expected weight-length error")
	}
}

func TestAdoptSlots(t *testing.T) {
	g := FromEdges(3, []Edge{{1, 0}, {2, 0}})
	wt := g.BuildWalkTable()
	if err := wt.AdoptSlots(make([]uint32, 2), make([]uint32, 2)); err != nil {
		t.Fatal(err)
	}
	if wt.Trivial() {
		t.Fatal("adopted slots should make the table non-trivial")
	}
	if err := wt.AdoptSlots(nil, nil); err != nil {
		t.Fatal(err)
	}
	if !wt.Trivial() {
		t.Fatal("nil slots should restore the trivial table")
	}
	if err := wt.AdoptSlots(make([]uint32, 1), make([]uint32, 2)); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if err := wt.AdoptSlots(make([]uint32, 2), nil); err == nil {
		t.Fatal("expected nil-mismatch error")
	}
}

// laneFixture is a walk table, the vertices its lanes start from and the
// batch shape to run on it.
type laneFixture struct {
	name     string
	wt       *WalkTable
	starts   []uint32
	T, walks int
	// rejects: no walk dies and the batch is long enough that some lane
	// must hit the Lemire rejection loop.
	rejects bool
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

func laneFixtures(t *testing.T) []laneFixture {
	dag := CitationDAG(300, 4, 17) // dangling-heavy: walks die; nobody cites the newest paper
	if len(dag.In(299)) != 0 || len(dag.In(0)) == 0 {
		t.Fatal("fixture: vertex 299 should have no in-links and vertex 0 some")
	}
	pa := PreferentialAttachment(300, 4, 0.3, 13)
	r := rng.New(5)
	weights := make([]float64, pa.M())
	for i := range weights {
		weights[i] = r.Float64()
	}
	weighted, err := BuildWeightedWalkTable(pa, weights)
	if err != nil {
		t.Fatal(err)
	}
	return []laneFixture{
		{"trivial", dag.BuildWalkTable(), []uint32{0, 299, 150, 298, 7, 213, 64, 31}, 12, 9, false},
		{"weighted", weighted, []uint32{299, 3, 150, 298, 7, 213, 64, 31}, 12, 9, false},
		{"rejection", rejectionTable(), []uint32{0, 1, 2, 3, 0, 1, 2, 3}, 200, 90, true},
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
				lanes[l].Start = fx.starts[l]
				lanes[l].Rng.Seed(uint64(100*k + l))
				lanes[l].Out = make([]uint32, (T+1)*stride)
				refs[l] = make([]uint32, (T+1)*stride)
				for i := range refs[l] {
					lanes[l].Out[i], refs[l][i] = untouched, untouched
				}
				refRng[l].Seed(uint64(100*k + l))
				for i := 0; i < walks; i++ {
					fx.wt.WalkStrided(&refRng[l], fx.starts[l], T, stride, refs[l][i:])
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

// A lane parked on a vertex without in-links dies at once and must not
// consume a draw, whatever its neighbours do.
func TestWalkLanesDeadConsumeNothing(t *testing.T) {
	fx := laneFixtures(t)[0]
	lanes := make([]WalkLane, 3)
	for l := range lanes {
		lanes[l].Start = fx.starts[l]
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
