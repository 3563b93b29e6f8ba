package batch

import (
	"strings"
	"testing"
)

// FuzzScanCompleted checks that arbitrary previous-output files never
// panic the resume scanner, that its complete prefix ends at the last
// newline, and that whatever it accepts parses.
func FuzzScanCompleted(f *testing.F) {
	f.Add("5\t1:0.5\n9\n")
	f.Add("")
	f.Add("torn")
	f.Add("1\t2:0.25\t3:bad\n")
	f.Add("4294967295\t0:1.000000\n")
	f.Fuzz(func(t *testing.T, input string) {
		done, complete, err := ScanCompleted(strings.NewReader(input))
		if err != nil {
			t.Fatalf("scanner errored on in-memory input: %v", err)
		}
		if want := strings.LastIndexByte(input, '\n') + 1; complete != int64(want) {
			t.Fatalf("complete prefix %d bytes, want %d", complete, want)
		}
		// Every accepted vertex must appear as a terminated,
		// parseable line.
		for v := range done {
			found := false
			for _, line := range strings.Split(input, "\n") {
				u, _, err := ParseLine(line)
				if err == nil && u == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("accepted vertex %d has no parseable line", v)
			}
		}
	})
}
