package core

import (
	"runtime"
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

// TestParamsFingerprintPinned pins Params.Fingerprint for the defaults and
// five variants. A router refuses to merge shards whose fingerprints differ,
// so a value that moves here strands every deployed shard: change one only
// with planDef or a result-affecting parameter, never by refactoring.
func TestParamsFingerprintPinned(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Params)
		want uint64
	}{
		{"default", func(*Params) {}, 0x4f95f0755ef4b2ed},
		{"no-adaptive", func(p *Params) { p.DisableAdaptive = true }, 0xf09f5b9307643112},
		{"ball-no-l1", func(p *Params) { p.Strategy = CandidatesBall; p.DisableL1 = true }, 0x351a0887e4ba86ad},
		{"hybrid", func(p *Params) { p.Strategy = CandidatesHybrid }, 0xacb6f502d038b712},
		{"custom-d", func(p *Params) { p.D = []float64{0.4, 0.5, 0.25} }, 0x9e11eb97c2c79529},
		{"linear", func(p *Params) { p.Strategy = CandidatesLinear }, 0xf85a1623ebc0a674},
	}
	for _, c := range cases {
		p := DefaultParams()
		c.edit(&p)
		if got := p.Fingerprint(); got != c.want {
			t.Errorf("%s: Fingerprint() = %#x, want %#x", c.name, got, c.want)
		}
	}
}

func TestCandidateStrategyString(t *testing.T) {
	cases := map[CandidateStrategy]string{
		CandidatesIndex:      "index",
		CandidatesBall:       "ball",
		CandidatesHybrid:     "hybrid",
		CandidatesLinear:     "linear",
		CandidateStrategy(9): "unknown",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

// TestParallelVerticesVisitsAllOnce holds the preprocess to the one worker
// pool's contract: every vertex exactly once, in runs of at most
// vertexChunk consecutive ids, each run on a scratch no other running
// chunk holds, and never more chunks at once than Params.Workers.
func TestParallelVerticesVisitsAllOnce(t *testing.T) {
	const n = 3*vertexChunk + 137
	g := graph.Cycle(n)
	for _, workers := range []int{1, 4, 200} { // 200 > chunks exercises the clamp
		p := DefaultParams()
		p.Workers = workers
		e := New(g, p)
		var mu sync.Mutex
		visits := make(map[uint32]int)
		inUse := make(map[*scratch]bool)
		running, peak := 0, 0
		e.parallelVertices(func(chunk []uint32, s *scratch) {
			if len(chunk) == 0 || len(chunk) > vertexChunk {
				t.Errorf("workers=%d: chunk of %d vertices", workers, len(chunk))
			}
			for i := 1; i < len(chunk); i++ {
				if chunk[i] != chunk[i-1]+1 {
					t.Errorf("workers=%d: chunk not consecutive at %d", workers, chunk[i])
				}
			}
			mu.Lock()
			if s == nil || s.n != n || inUse[s] {
				t.Errorf("workers=%d: chunk at %d without a scratch of its own", workers, chunk[0])
			}
			inUse[s] = true
			running++
			peak = max(peak, running)
			for _, v := range chunk {
				visits[v]++
			}
			mu.Unlock()
			runtime.Gosched()
			mu.Lock()
			delete(inUse, s)
			running--
			mu.Unlock()
		})
		if peak > workers {
			t.Fatalf("workers=%d: %d chunks ran at once", workers, peak)
		}
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
