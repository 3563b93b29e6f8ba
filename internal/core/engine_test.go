package core

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestEngineString(t *testing.T) {
	e := New(graph.Star(4), DefaultParams())
	if !strings.Contains(e.String(), "c=0.60") {
		t.Fatalf("String() = %q", e.String())
	}
}

func TestParamsNormalization(t *testing.T) {
	p := Params{}.normalized()
	def := DefaultParams()
	if p.C != def.C || p.T != def.T || p.RScore != def.RScore ||
		p.P != def.P || p.Q != def.Q || p.Theta != def.Theta {
		t.Fatalf("normalized zero params: %+v", p)
	}
	if p.Workers <= 0 {
		t.Fatal("workers not defaulted")
	}
	if p.DMax != p.T {
		t.Fatal("DMax should default to T")
	}
	if p.BallBudget != 20000 || p.RAlpha != 10000 {
		t.Fatalf("budget defaults wrong: %+v", p)
	}
	// Out-of-range values are replaced too.
	bad := Params{C: 1.5, T: -1, Theta: -3}.normalized()
	if bad.C != def.C || bad.T != def.T || bad.Theta != def.Theta {
		t.Fatalf("invalid params not fixed: %+v", bad)
	}
}

func TestCandidateStrategyString(t *testing.T) {
	cases := map[CandidateStrategy]string{
		CandidatesIndex:      "index",
		CandidatesBall:       "ball",
		CandidatesHybrid:     "hybrid",
		CandidateStrategy(9): "unknown",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestParallelVerticesVisitsAllOnce(t *testing.T) {
	const n = 3*vertexChunk + 137
	g := graph.Cycle(n)
	for _, workers := range []int{1, 4, 200} { // 200 > chunks exercises the clamp
		p := DefaultParams()
		p.Workers = workers
		e := New(g, p)
		var mu sync.Mutex
		visits := make(map[uint32]int)
		e.parallelVertices(func(chunk []uint32, s *scratch) {
			if len(chunk) == 0 || len(chunk) > vertexChunk {
				t.Errorf("workers=%d: chunk of %d vertices", workers, len(chunk))
			}
			mu.Lock()
			for _, v := range chunk {
				visits[v]++
			}
			mu.Unlock()
		})
		if len(visits) != n {
			t.Fatalf("workers=%d: visited %d vertices, want %d", workers, len(visits), n)
		}
		for v, c := range visits {
			if c != 1 {
				t.Fatalf("workers=%d: vertex %d visited %d times", workers, v, c)
			}
		}
	}
}

// Property: TopK output is always well-formed — sorted, deduplicated,
// excludes the query, scores within the series' trivial range.
func TestTopKWellFormedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(60)
		g := graph.ErdosRenyi(n, 4*n, seed)
		p := DefaultParams()
		p.Seed = seed
		p.Workers = 1
		p.RAlpha = 200
		p.Strategy = CandidateStrategy(r.Intn(3))
		e := Build(g, p)
		u := uint32(r.Intn(n))
		k := 1 + r.Intn(10)
		res := e.TopK(u, k)
		if len(res) > k {
			return false
		}
		seen := map[uint32]bool{}
		for i, s := range res {
			if s.V == u || seen[s.V] {
				return false
			}
			seen[s.V] = true
			if s.Score < 0 || s.Score > 1.0/(1-p.C)+1e-9 {
				return false
			}
			if i > 0 && res[i-1].Score < s.Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
