package graph

import (
	"bytes"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// FuzzReadEdgeList holds ReadEdgeList to refReadEdgeList, the
// Scanner/Fields/ParseUint parser it replaced: the same accept/reject
// verdict and the same CSR, and accepted graphs re-serialize losslessly.
//
// Inputs holding a non-ASCII Unicode space (U+0085, U+00A0, U+2000…) are
// skipped: the reference splits fields and trims lines on them, ReadEdgeList
// separates on ASCII white space only and rejects such a line as a bad ID.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n% other\n\n3 4\n")
	f.Add("0 0\n")
	f.Add("4294967295 1\n")
	f.Add("a b\n")
	f.Add("1\n")
	f.Add("0 1\r\n\t# x\r\n2\t3 extra\n+1 2\n")
	f.Add("\v5 \f6\r\n\r7 8")
	f.Add(strings.Repeat("0 1\n", 100))
	f.Fuzz(func(t *testing.T, input string) {
		if strings.ContainsFunc(input, func(r rune) bool { return r >= utf8.RuneSelf && unicode.IsSpace(r) }) {
			return
		}
		g, err := ReadEdgeList(strings.NewReader(input))
		ref, refErr := refReadEdgeList(strings.NewReader(input))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("verdicts differ: %v vs reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !sameCSR(g, ref) {
			t.Fatalf("graphs differ: %v vs reference %v", g, ref)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("accepted graph failed to serialize: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if g2.M() != g.M() {
			t.Fatalf("round trip changed m: %d vs %d", g2.M(), g.M())
		}
	})
}
