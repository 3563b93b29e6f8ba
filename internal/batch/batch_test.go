package batch

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func batchEngine(t *testing.T) *core.Engine {
	t.Helper()
	g := graph.CopyingModel(120, 4, 0.3, 5)
	p := core.DefaultParams()
	p.Seed = 1
	p.Workers = 2
	p.RAlpha = 300
	return core.Build(g, p)
}

func TestRunCoversAllVertices(t *testing.T) {
	e := batchEngine(t)
	var buf bytes.Buffer
	processed, err := Run(Job{Engine: e, K: 5}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	n := e.Graph().N()
	if processed != n {
		t.Fatalf("processed %d of %d", processed, n)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("%d lines for %d vertices", len(lines), n)
	}
	// Output is in ascending vertex order and parseable.
	for i, line := range lines {
		u, res, err := ParseLine(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if int(u) != i {
			t.Fatalf("line %d is vertex %d", i, u)
		}
		if len(res) > 5 {
			t.Fatalf("vertex %d has %d results", u, len(res))
		}
	}
}

func TestRunSharding(t *testing.T) {
	e := batchEngine(t)
	n := e.Graph().N()
	var full bytes.Buffer
	if _, err := Run(Job{Engine: e, K: 5}, &full); err != nil {
		t.Fatal(err)
	}
	// Three shards must cover the whole graph exactly once and agree
	// with the unsharded run line-for-line.
	var shardLines []string
	for s := 0; s < 3; s++ {
		var buf bytes.Buffer
		if _, err := Run(Job{Engine: e, K: 5, Shard: s, NumShards: 3}, &buf); err != nil {
			t.Fatal(err)
		}
		shardLines = append(shardLines, strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")...)
	}
	if len(shardLines) != n {
		t.Fatalf("shards produced %d lines", len(shardLines))
	}
	fullLines := map[string]bool{}
	for _, l := range strings.Split(strings.TrimRight(full.String(), "\n"), "\n") {
		fullLines[l] = true
	}
	for _, l := range shardLines {
		if !fullLines[l] {
			t.Fatalf("shard line not in full output: %q", l)
		}
	}
}

func TestRunResume(t *testing.T) {
	e := batchEngine(t)
	n := e.Graph().N()
	var first bytes.Buffer
	if _, err := Run(Job{Engine: e, K: 5}, &first); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: keep the first 40 lines plus a torn 41st.
	lines := strings.SplitAfter(first.String(), "\n")
	partial := strings.Join(lines[:40], "") + lines[40][:len(lines[40])/2]
	done, complete, err := ScanCompleted(strings.NewReader(partial))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 40 || complete != int64(len(strings.Join(lines[:40], ""))) {
		t.Fatalf("scan found %d completed in %d bytes, want 40 lines", len(done), complete)
	}
	var rest bytes.Buffer
	processed, err := Run(Job{Engine: e, K: 5, Done: done}, &rest)
	if err != nil {
		t.Fatal(err)
	}
	if processed != n-40 {
		t.Fatalf("resume processed %d, want %d", processed, n-40)
	}
	// Concatenation covers every vertex exactly once.
	all := strings.Join(lines[:40], "") + rest.String()
	seen := map[uint32]bool{}
	for _, l := range strings.Split(strings.TrimRight(all, "\n"), "\n") {
		u, _, err := ParseLine(l)
		if err != nil {
			t.Fatal(err)
		}
		if seen[u] {
			t.Fatalf("vertex %d duplicated", u)
		}
		seen[u] = true
	}
	if len(seen) != n {
		t.Fatalf("combined output covers %d of %d", len(seen), n)
	}
}

// TestResumeTornOutput: resuming an output cut anywhere — mid-line
// included, where the torn vertex id would otherwise prefix the first
// resumed line — must leave exactly a fresh run's bytes, and a second
// resume must find every vertex done.
func TestResumeTornOutput(t *testing.T) {
	e := batchEngine(t)
	var fresh bytes.Buffer
	if _, err := Run(Job{Engine: e, K: 5}, &fresh); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(fresh.String(), "\n")
	tenLines := len(strings.Join(lines[:10], ""))
	for _, cut := range []int{0, 1, tenLines, tenLines + 1, tenLines + len(lines[10]) - 1, fresh.Len()} {
		path := filepath.Join(t.TempDir(), "topk.tsv")
		if err := os.WriteFile(path, fresh.Bytes()[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		f, done, err := Resume(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(Job{Engine: e, K: 5, Done: done}, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fresh.Bytes()) {
			t.Fatalf("cut at byte %d: resumed output differs from a fresh run", cut)
		}
		f, done, err = Resume(path)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		if len(done) != e.Graph().N() {
			t.Fatalf("cut at byte %d: second resume finds %d of %d vertices done", cut, len(done), e.Graph().N())
		}
	}
}

func TestRunValidation(t *testing.T) {
	e := batchEngine(t)
	var buf bytes.Buffer
	if _, err := Run(Job{Engine: nil, K: 5}, &buf); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := Run(Job{Engine: e, K: 0}, &buf); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Run(Job{Engine: e, K: 5, Shard: 3, NumShards: 3}, &buf); err == nil {
		t.Fatal("bad shard accepted")
	}
}

func TestProgressCallback(t *testing.T) {
	e := batchEngine(t)
	var buf bytes.Buffer
	calls := 0
	_, err := Run(Job{Engine: e, K: 3, Progress: func(done, total int) { calls++ }}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress never reported")
	}
}

func TestScanCompletedGarbage(t *testing.T) {
	in := "5\t1:0.5\nnot a line\n7\t2:0.25\t3:bad\n9\n"
	done, complete, err := ScanCompleted(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if complete != int64(len(in)) {
		t.Fatalf("complete prefix %d bytes, want all %d", complete, len(in))
	}
	if !done[5] || !done[9] {
		t.Fatalf("valid lines missed: %v", done)
	}
	if done[7] {
		t.Fatal("torn line counted as complete")
	}
	if len(done) != 2 {
		t.Fatalf("done = %v", done)
	}
}

func TestParseLineErrors(t *testing.T) {
	for _, bad := range []string{"x", "1\tnocolon", "1\tx:0.5", "1\t2:x"} {
		if _, _, err := ParseLine(bad); err == nil {
			t.Fatalf("parsed %q", bad)
		}
	}
	u, res, err := ParseLine("3")
	if err != nil || u != 3 || len(res) != 0 {
		t.Fatalf("bare vertex line: %v %v %v", u, res, err)
	}
}
