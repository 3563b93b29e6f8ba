package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// The committed golden corpus pins the exact query outputs of the
// deterministic draw schema: one bounded-uniform draw (Lemire
// multiply-shift with bounded rejection) per live walk per step, consumed
// identically on the alias fast path and the uniform fallback. Any change
// to the walk kernel, the alias tables, the rng, or the scoring pipeline
// that shifts a single draw — or a single floating-point accumulation —
// fails this test. Regenerate (deliberately!) with:
//
//	go test ./internal/core -run TestGoldenQueryCorpus -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_queries.json from the current implementation")

const goldenFile = "testdata/golden_queries.json"

// goldenRecord stores one query result with bit-exact scores: Bits is
// math.Float64bits of the score, so JSON round-tripping cannot lose
// precision.
type goldenRecord struct {
	Case   string   `json:"case"`
	Scores []uint64 `json:"scores"`
	Verts  []uint32 `json:"verts,omitempty"`
}

func goldenCorpus(t *testing.T) []goldenRecord {
	var out []goldenRecord
	add := func(name string, res []Scored) {
		rec := goldenRecord{Case: name}
		for _, s := range res {
			rec.Verts = append(rec.Verts, s.V)
			rec.Scores = append(rec.Scores, math.Float64bits(s.Score))
		}
		out = append(out, rec)
	}
	addVal := func(name string, v float64) {
		out = append(out, goldenRecord{Case: name, Scores: []uint64{math.Float64bits(v)}})
	}

	// Corpus A: copying-model web graph, paper defaults, index strategy.
	{
		g := graph.CopyingModel(3000, 6, 0.3, 21)
		p := DefaultParams()
		p.Seed = 17
		p.Workers = 1
		e := Build(g, p)
		for _, u := range []uint32{0, 17, 999, 2500} {
			add(fmt.Sprintf("copying/topk/u=%d", u), e.TopK(u, 20))
		}
		add("copying/threshold/u=42", e.Threshold(42, 0.02))
		addVal("copying/pair/0-1", e.SinglePair(0, 1))
		addVal("copying/pair/7-1234", e.SinglePair(7, 1234))
		addVal("copying/pairR/2-0", e.SinglePairR(2, 0, 200))
	}

	// Corpus B: collaboration communities, hybrid candidates, each query
	// asked twice: the repeat takes its plan from the prolog cache, so
	// these goldens also pin the cached plan.
	{
		g := graph.Collaboration(400, 5, 0.8, 40, 7)
		p := DefaultParams()
		p.Seed = 4
		p.Workers = 2
		p.Strategy = CandidatesHybrid
		p.RAlpha = 1000
		e := Build(g, p)
		for _, u := range []uint32{0, 3, 77, 500} {
			add(fmt.Sprintf("collab/topk/u=%d", u), e.TopK(u, 10))
			hits := e.PrologStats().Hits
			add(fmt.Sprintf("collab/topk-cached/u=%d", u), e.TopK(u, 10))
			if e.PrologStats().Hits != hits+1 {
				t.Fatalf("collab u=%d: the repeat missed the prolog cache: %+v", u, e.PrologStats())
			}
		}
	}

	// Corpus C: preferential attachment (heavy-tailed in-degrees), ball
	// strategy — exercises the uniform kernel on high-degree vertices and
	// the no-index query path.
	{
		g := graph.PreferentialAttachment(1500, 5, 0.3, 9)
		p := DefaultParams()
		p.Seed = 99
		p.Workers = 1
		p.Strategy = CandidatesBall
		p.RAlpha = 2000
		e := Build(g, p)
		for _, u := range []uint32{1, 10, 100} {
			add(fmt.Sprintf("prefattach/topk/u=%d", u), e.TopK(u, 10))
		}
		addVal("prefattach/pair/5-6", e.SinglePair(5, 6))
	}

	// Corpus D: dangling-heavy citation DAG — many dead walks, so the
	// live/dead draw-consumption discipline is pinned too.
	{
		g := graph.CitationDAG(800, 4, 3)
		p := DefaultParams()
		p.Seed = 5
		p.Workers = 1
		e := Build(g, p)
		for _, u := range []uint32{0, 400, 799} {
			add(fmt.Sprintf("citation/topk/u=%d", u), e.TopK(u, 10))
		}
		addVal("citation/pair/100-200", e.SinglePair(100, 200))
	}
	return out
}

func TestGoldenQueryCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus builds several engines")
	}
	got := goldenCorpus(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d records", goldenFile, len(got))
		return
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("reading golden corpus (regenerate with -update-golden): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing golden corpus: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d records, golden file has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Case != w.Case {
			t.Fatalf("record %d: case %q, golden %q", i, g.Case, w.Case)
		}
		if len(g.Scores) != len(w.Scores) {
			t.Errorf("%s: %d scores, golden %d", g.Case, len(g.Scores), len(w.Scores))
			continue
		}
		for j := range g.Scores {
			if g.Scores[j] != w.Scores[j] {
				t.Errorf("%s: score[%d] = %x (%v), golden %x (%v)", g.Case, j,
					g.Scores[j], math.Float64frombits(g.Scores[j]),
					w.Scores[j], math.Float64frombits(w.Scores[j]))
			}
		}
		for j := range g.Verts {
			if j < len(w.Verts) && g.Verts[j] != w.Verts[j] {
				t.Errorf("%s: vert[%d] = %d, golden %d", g.Case, j, g.Verts[j], w.Verts[j])
			}
		}
	}
}
