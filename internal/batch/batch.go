// Package batch runs the all-vertices top-k similarity search (the
// "top-k for all" mode of Table 1) as a restartable, shardable job and
// streams results to a TSV writer.
//
// The paper notes the query phase is distributed-computing friendly: with
// M machines the O(n²)-worst-case all-pairs search drops to O(n²/M).
// A Job with Shard i of M processes exactly the contiguous vertex range
// [i·n/M, (i+1)·n/M) — the canonical partition owned by internal/shard,
// the same one the serving tier's router assumes — so shard outputs are
// simply concatenated, and a batch shard's vertex set matches the
// serving shard of the same index.
//
// Output format, one line per vertex (tab-separated):
//
//	vertex <TAB> neighbour:score <TAB> neighbour:score ...
//
// Vertices with no results above the threshold still emit a line, so a
// resumed job can tell completed vertices from unprocessed ones.
package batch

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/shard"
)

// Job describes one all-pairs run (or one shard of it).
type Job struct {
	Engine *core.Engine
	K      int
	// Shard / NumShards select the contiguous vertex range
	// shard.Range(Shard, NumShards, n). NumShards 0 or 1 means the
	// whole graph.
	Shard     int
	NumShards int
	// Done lists vertices already present in a previous partial output;
	// they are skipped (see ScanCompleted).
	Done map[uint32]bool
	// Progress, when non-nil, receives the number of processed vertices
	// at coarse intervals.
	Progress func(done, total int)
}

// Run executes the job, writing one line per processed vertex to w.
// Results are written in ascending vertex order regardless of the
// parallel execution order, so output files are deterministic.
//
// Parallelism comes from TopKBatch running Params.Workers whole queries
// at once (each query scores its candidates sequentially — the workers
// are already saturated across vertices), which is the efficient
// arrangement for throughput-bound batch work; per-query scoring
// parallelism only helps latency-bound interactive queries.
func Run(job Job, w io.Writer) (processed int, err error) {
	if job.Engine == nil {
		return 0, fmt.Errorf("batch: nil engine")
	}
	if job.K <= 0 {
		return 0, fmt.Errorf("batch: k must be positive, got %d", job.K)
	}
	if job.NumShards > 1 && (job.Shard < 0 || job.Shard >= job.NumShards) {
		return 0, fmt.Errorf("batch: shard %d out of range [0, %d)", job.Shard, job.NumShards)
	}
	n := job.Engine.Graph().N()
	lo, hi := shard.Range(job.Shard, job.NumShards, n)
	var todo []uint32
	for v := lo; v < hi; v++ {
		if job.Done[uint32(v)] {
			continue
		}
		todo = append(todo, uint32(v))
	}

	// Each chunk is one TopKBatch call: the job computes exactly its own
	// vertices (a shard of M machines does n/M queries, not n filtered),
	// results stream out between chunks, and every query in the run shares
	// the snapshot's tally cache.
	bw := bufio.NewWriter(w)
	const chunk = 1024
	for lo := 0; lo < len(todo); lo += chunk {
		hi := min(lo+chunk, len(todo))
		res, _ := job.Engine.TopKBatch(todo[lo:hi], job.K)
		for i, r := range res {
			if err := writeLine(bw, todo[lo+i], r); err != nil {
				return processed, err
			}
			processed++
		}
		if job.Progress != nil {
			job.Progress(processed, len(todo))
		}
	}
	return processed, bw.Flush()
}

func writeLine(w *bufio.Writer, u uint32, res []core.Scored) error {
	if _, err := fmt.Fprintf(w, "%d", u); err != nil {
		return err
	}
	for _, s := range res {
		if _, err := fmt.Fprintf(w, "\t%d:%.6f", s.V, s.Score); err != nil {
			return err
		}
	}
	return w.WriteByte('\n')
}

// ScanCompleted reads a previous (possibly truncated) output file and
// returns the set of vertices it already covers, enabling resume, and
// the length of its newline-terminated prefix. Only terminated lines
// count: the torn final line of a crashed run lacks its terminator (and
// could otherwise still parse, e.g. a score cut mid-digits). Unparseable
// terminated lines are also skipped.
func ScanCompleted(r io.Reader) (map[uint32]bool, int64, error) {
	done := make(map[uint32]bool)
	var complete int64
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			// line holds a fragment with no terminator: torn, skip.
			return done, complete, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("batch: scanning previous output: %w", err)
		}
		complete += int64(len(line))
		line = strings.TrimSuffix(line, "\n")
		if line == "" {
			continue
		}
		head, rest, _ := strings.Cut(line, "\t")
		v, err := strconv.ParseUint(head, 10, 32)
		if err != nil {
			continue // foreign line
		}
		if rest != "" && !validEntries(rest) {
			continue
		}
		done[uint32(v)] = true
	}
}

// Resume opens the output at path to continue a job that stopped part
// way: it returns the vertices already covered (ScanCompleted) and the
// file, cut back to its last complete line and set to append, so the
// first resumed line never continues a crashed run's torn last line. A
// missing file is created and resumes from nothing.
func Resume(path string) (*os.File, map[uint32]bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	done, complete, err := ScanCompleted(f)
	if err == nil {
		err = f.Truncate(complete)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, done, nil
}

// validEntries reports whether every tab-separated field parses as
// "vertex:score".
func validEntries(rest string) bool {
	for _, f := range strings.Split(rest, "\t") {
		v, s, ok := strings.Cut(f, ":")
		if !ok {
			return false
		}
		if _, err := strconv.ParseUint(v, 10, 32); err != nil {
			return false
		}
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			return false
		}
	}
	return true
}

// ParseLine decodes one output line back into (vertex, results); used by
// consumers of batch output and by the tests.
func ParseLine(line string) (uint32, []core.Scored, error) {
	head, rest, _ := strings.Cut(line, "\t")
	u64, err := strconv.ParseUint(head, 10, 32)
	if err != nil {
		return 0, nil, fmt.Errorf("batch: bad vertex in %q: %w", line, err)
	}
	var res []core.Scored
	if rest != "" {
		for _, f := range strings.Split(rest, "\t") {
			vs, ss, ok := strings.Cut(f, ":")
			if !ok {
				return 0, nil, fmt.Errorf("batch: bad entry %q", f)
			}
			v, err := strconv.ParseUint(vs, 10, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("batch: bad entry vertex %q: %w", vs, err)
			}
			s, err := strconv.ParseFloat(ss, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("batch: bad entry score %q: %w", ss, err)
			}
			res = append(res, core.Scored{V: uint32(v), Score: s})
		}
	}
	return uint32(u64), res, nil
}
