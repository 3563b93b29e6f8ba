package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var smokeScale = scale{n: 2000, window: 1}

// survivors lists the processes still running one of the binaries the
// harness built. Matching on the executable path finds a leaked child
// whoever its parent has become.
func survivors(t *testing.T, e *env) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, ent := range entries {
		pid, err := strconv.Atoi(ent.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", ent.Name(), "exe"))
		if err != nil {
			continue // gone, or not ours to read
		}
		if exe == e.simserver || exe == e.simrouter {
			pids = append(pids, pid)
		}
	}
	return pids
}

// TestSmoke runs all four workloads end to end at the smoke scale, on
// real simserver and simrouter processes, in both modes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	ctx := context.Background()
	e, err := newEnv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, w := range workloads {
		res, err := runWorkload(ctx, e, w, smokeScale, 1, true, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		// result.fill has already refused anything undeclared or missing;
		// the count says both tables went through it.
		if want := len(endToEnd) + len(perLayer); len(res.Metrics) != want {
			t.Errorf("%s: %d metrics emitted, %d declared", w.name, len(res.Metrics), want)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v)
			}
		}
		for _, name := range []string{"router.hedges_fired", "router.attempt_errors", "router.failures", "server.timeouts"} {
			if v := res.Metrics[name].Value; v != 0 {
				t.Errorf("%s: %s = %v, want 0", w.name, name, v)
			}
		}
		if w.routed && res.Metrics["router.bytes_per_req"].Value == 0 {
			t.Errorf("%s: the live router counters did not move", w.name)
		}
		if w.cacheBytes > 0 && res.Metrics["server.tally_hit_ratio"].Value == 0 {
			t.Errorf("%s: the live tally cache saw no hits", w.name)
		}
		data, err := os.ReadFile(filepath.Join(e.outDir, w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		for i, s := range spans {
			if s.EndNS < s.StartNS || s.Parent >= i {
				t.Fatalf("%s: span %d is malformed: %+v", w.name, i, s)
			}
		}
		if left := survivors(t, e); len(left) > 0 {
			t.Fatalf("%s: server processes survived the run: %v", w.name, left)
		}
	}
	t.Logf("four workloads in %v", time.Since(start).Round(time.Millisecond))
}

// TestAbortedRunLeavesNoChildren cancels runs at several points — in
// set-up, in the warm-up, in the window — and checks that each ends
// with an error and that no server process outlives it.
func TestAbortedRunLeavesNoChildren(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	e, err := newEnv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	routed, _ := workloadByName("web-zipf-routed")
	for _, after := range []time.Duration{30 * time.Millisecond, 250 * time.Millisecond, 900 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), after)
		_, err := runWorkload(ctx, e, routed, smokeScale, 1, true, false)
		cancel()
		if err == nil {
			t.Errorf("run cancelled after %v returned no error", after)
		} else if !errors.Is(err, context.DeadlineExceeded) {
			t.Logf("cancelled after %v: %v", after, err)
		}
		if left := survivors(t, e); len(left) > 0 {
			t.Fatalf("cancelled after %v: server processes survived: %v", after, left)
		}
	}
}

// A topology whose child dies before it is ready must report the
// child's captured log, and leave nothing running.
func TestFailedSetupDumpsLogs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	e, err := newEnv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	single, _ := workloadByName("web-zipf-single")
	_, err = startTopology(context.Background(), e, single, filepath.Join(t.TempDir(), "no-such-graph.txt"))
	if err == nil {
		t.Fatal("a server without a graph file became ready")
	}
	if msg := err.Error(); !strings.Contains(msg, "simserver") || !strings.Contains(msg, "no-such-graph.txt") {
		t.Errorf("error does not carry the child's log: %v", err)
	}
	if left := survivors(t, e); len(left) > 0 {
		t.Fatalf("server processes survived: %v", left)
	}
}
