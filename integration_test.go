package simrank_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	simrank "repro"
	"repro/internal/server"
)

// TestEndToEnd exercises the whole stack the way a deployment would:
// load a graph from disk, build and persist an index, reload it, query it
// directly and over HTTP, and cross-check everything against the
// deterministic reference.
func TestEndToEnd(t *testing.T) {
	g, err := simrank.LoadEdgeListFile("testdata/small.txt")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 87 || g.NumEdges() != 410 {
		t.Fatalf("committed graph changed: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}

	opts := simrank.DefaultOptions()
	opts.Seed = 42
	idx := simrank.BuildIndex(g, opts)

	// Persist and reload; answers must be identical.
	var saved bytes.Buffer
	if err := idx.SaveIndex(&saved); err != nil {
		t.Fatal(err)
	}
	idx2, err := simrank.LoadIndex(g, opts, &saved)
	if err != nil {
		t.Fatal(err)
	}
	// The default builds no candidate index: the file holds the graph alone.
	if idx.Stats().IndexBytes != 0 || idx2.Stats().IndexBytes != 0 {
		t.Fatalf("index bytes %d built, %d loaded; the default has none", idx.Stats().IndexBytes, idx2.Stats().IndexBytes)
	}

	// Query every vertex on both instances; compare against the exact
	// reference ranking.
	agree, total := 0, 0
	for u := 0; u < g.NumVertices(); u++ {
		a, err := idx.TopK(u, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := idx2.TopK(u, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("u=%d: reloaded index answers differently", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("u=%d: reloaded index answers differently at %d", u, i)
			}
		}
		want, err := simrank.ExactTopK(g, opts, u, 5)
		if err != nil {
			t.Fatal(err)
		}
		wantSet := map[int]bool{}
		for _, w := range want {
			if w.Score >= 0.05 {
				wantSet[w.Node] = true
				total++
			}
		}
		for _, r := range a {
			if wantSet[r.Node] {
				agree++
			}
		}
	}
	if total > 0 && float64(agree) < 0.85*float64(total) {
		t.Fatalf("end-to-end recall %d/%d too low", agree, total)
	}

	// Serve the reloaded index over HTTP and compare one query.
	srv := httptest.NewServer(server.New(idx2))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/topk?u=3&k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP status %d", resp.StatusCode)
	}
	var payload server.TopKResponse
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	direct, err := idx2.TopK(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload.Results) != len(direct) {
		t.Fatalf("HTTP answered %d results, direct %d", len(payload.Results), len(direct))
	}
	for i := range direct {
		if payload.Results[i].Node != direct[i].Node {
			t.Fatalf("HTTP result %d differs: %+v vs %+v", i, payload.Results[i], direct[i])
		}
	}
}

// TestGoldenGraphParsesConsistently pins the committed corpus format.
func TestGoldenGraphParsesConsistently(t *testing.T) {
	g, err := simrank.LoadEdgeListFile("testdata/small.txt")
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the builder API.
	gb := simrank.NewGraphBuilder(g.NumVertices())
	for u := 0; u < g.NumVertices(); u++ {
		for v := 0; v < g.NumVertices(); v++ {
			if g.HasEdge(u, v) {
				if err := gb.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if rebuilt := gb.Build(); rebuilt.NumEdges() != g.NumEdges() {
		t.Fatalf("rebuild lost edges: %d vs %d", rebuilt.NumEdges(), g.NumEdges())
	}
	// The golden scores file must be present and plausibly sized.
	data, err := os.ReadFile("testdata/small_golden.tsv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 100 {
		t.Fatalf("golden corpus suspiciously small: %d lines", len(lines))
	}
}
