package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"os"
	"time"
)

// span is one timed call into a layer. Spans are recorded from the
// harness, around the calls into each module's public functions; spans
// inside the program under test are a later change.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`   // index of the enclosing span, -1 for a root
	QueryID int    `json:"query_id"` // stream position, -1 outside any query
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: the layers pass is single-threaded by design, so counts
// and cache states repeat exactly.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, queryID int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, QueryID: queryID, StartNS: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.spans[id].EndNS = time.Since(t.epoch).Nanoseconds()
}

// selfMean returns the mean self time in nanoseconds of the spans
// called name: a span's duration minus the part of it its child spans
// cover.
func (t *tracer) selfMean(name string) float64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	sum, count := 0.0, 0
	for i, s := range t.spans {
		if s.Name == name {
			sum += float64(s.EndNS - s.StartNS - covered[i])
			count++
		}
	}
	return ratio(sum, float64(count))
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	return writeFile(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(t.spans) })
}

// writeFile creates path and fills it through a buffered writer.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := errors.Join(fill(w), w.Flush()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
