package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSet(t *testing.T, dir, name string, qps, p50 float64, failed int) string {
	t.Helper()
	set := resultSet{Seed: 1, Seconds: 15, Workloads: map[string]*result{
		"web-zipf-single": {Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{
			"qps":           {qps, "1/s"},
			"p50_ms":        {p50, "ms"},
			"graph.ball_us": {70 * p50, "us"},
		}},
	}}
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareMarksOnlyWorseThanBound(t *testing.T) {
	dir := t.TempDir()
	base := writeSet(t, dir, "a.json", 4000, 0.40, 0)
	for _, c := range []struct {
		name     string
		qps, p50 float64
		failed   int
		ok       bool
		marks    int
	}{
		{"same", 4000, 0.40, 0, true, 0},
		{"inside", 3200, 0.48, 0, true, 0},       // 20 % fewer qps, 20 % slower: inside 25 %
		{"better", 8000, 0.10, 0, true, 0},       // a large change for the better is not a regression
		{"qps-outside", 2800, 0.40, 0, false, 1}, // 30 % fewer qps
		{"both-outside", 2800, 0.52, 0, false, 2},
		{"failures", 4000, 0.40, 3, false, 0},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, writeSet(t, dir, c.name+".json", c.qps, c.p50, c.failed))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || strings.Count(out.String(), "OUTSIDE") != c.marks {
			t.Errorf("%s: ok=%v with %d marks, want ok=%v with %d marks\n%s",
				c.name, ok, strings.Count(out.String(), "OUTSIDE"), c.ok, c.marks, out.String())
		}
		// Per-layer metrics are printed with their ratio but carry no bound.
		if !strings.Contains(out.String(), "graph.ball_us") {
			t.Errorf("%s: per-layer metric missing from the comparison\n%s", c.name, out.String())
		}
	}
}
