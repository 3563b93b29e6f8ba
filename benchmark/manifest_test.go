package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.name, d.unit, unitRE)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %s: better is %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, d := range perLayer {
		if d.bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.name)
		}
	}
}

// BENCHMARK.json and the harness must agree in both directions: the
// tables in metrics.go and workload.go are what the harness emits
// (result.fill rejects anything else), so equality here means every
// declared metric is emitted and nothing undeclared is.
func TestManifestAgreesWithHarness(t *testing.T) {
	m := readManifest(t)
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(m.Command, want) {
		t.Errorf("command = %v, want %v", m.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(m.Paths, want) {
		t.Errorf("paths = %v, want %v", m.Paths, want)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the harness has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, the harness has {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, declared []manifestMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d metrics declared, the harness has %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			got := declared[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s %d: declared {%s %s %s}, the harness has {%s %s %s}",
					kind, i, got.Name, got.Unit, got.Better, d.name, d.unit, d.better)
			}
			switch {
			case bounded && (got.Bound == nil || *got.Bound != d.bound):
				t.Errorf("%s %s: declared bound %v, the harness has %v", kind, d.name, got.Bound, d.bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s %s: a per-layer metric declares a bound", kind, d.name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	found := false
	for _, d := range m.EndToEnd {
		found = found || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !found {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
}
