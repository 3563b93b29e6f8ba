package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return ratio(a-b, math.Abs(a))
	}
	return ratio(b-a, math.Abs(a))
}

// compareFiles prints, per workload and metric, both values and the
// ratio b/a (base a), and marks every end-to-end metric on which b is
// worse than a by more than the metric's bound. It reports whether all
// end-to-end metrics stayed inside their bounds.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s (seed %d, %gs window)\nb = %s (seed %d, %gs window)\n", pathA, a.Seed, a.Seconds, pathB, b.Seed, b.Seconds)
	ok := true
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-28s %14s %14s %10s\n", wl.name, "metric", "a", "b", "b/a")
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				va, inA := ra.Metrics[d.name]
				vb, inB := rb.Metrics[d.name]
				if !inA || !inB {
					continue
				}
				mark := ""
				if d.bound > 0 {
					if worse := worseBy(d, va.Value, vb.Value); worse > d.bound {
						mark = fmt.Sprintf("  OUTSIDE: %.1f%% worse, bound %.0f%%", 100*worse, 100*d.bound)
						ok = false
					}
				}
				fmt.Fprintf(w, "  %-28s %14.4f %14.4f %10.4f %s%s\n", d.name, va.Value, vb.Value, ratio(vb.Value, va.Value), d.unit, mark)
			}
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "  failed operations: a %d of %d, b %d of %d\n", ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			ok = false
		}
	}
	return ok, nil
}
