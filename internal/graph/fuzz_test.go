package graph

import (
	"bytes"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/rng"
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

// FuzzWalkKernels holds the two batched walk kernels to the one-walk
// reference on small random graphs: StepWalks to a loop of referenceStep,
// WalkLanes to per-lane WalkStrided at a width up to MaxWalkLanes, with the
// walk range cut into calls at random points — the same positions and the
// same final generator state. The last vertex never gets an in-link, so
// every graph has dead ends.
func FuzzWalkKernels(f *testing.F) {
	f.Add(uint64(1), uint8(12), []byte{0, 1, 1, 2, 2, 0, 3, 1, 4, 2, 5, 5}, uint8(5), uint8(7), uint16(1500))
	f.Add(uint64(2), uint8(3), []byte{}, uint8(1), uint8(1), uint16(0))
	f.Add(uint64(3), uint8(40), []byte("a dense enough edge list for a few dozen vertices"), uint8(MaxWalkLanes-1), uint8(11), uint16(60))
	f.Fuzz(func(t *testing.T, seed uint64, nv uint8, edges []byte, width, steps uint8, walks uint16) {
		n := 1 + int(nv%48)
		b := NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			if u, v := int(edges[i])%n, int(edges[i+1])%n; v != n-1 {
				b.AddEdge(uint32(u), uint32(v))
			}
		}
		g := b.Build()
		wt := g.BuildWalkTable()
		T := 1 + int(steps%12)
		pick := rng.New(seed)
		startOf := func() uint32 { return pick.Uint32n(uint32(n)) }

		// StepWalks: up to two and a half StepLane chunks, some walks dead
		// from the start.
		pos := make([]uint32, 1+int(walks)%(5*StepLane/2))
		ref := make([]uint32, len(pos))
		for i := range pos {
			pos[i] = startOf()
			if pick.Uint32n(8) == 0 {
				pos[i] = NoVertex
			}
			ref[i] = pos[i]
		}
		lane := make([]uint64, 2*min(len(pos), StepLane))
		ra, rb := rng.New(seed^1), rng.New(seed^1)
		for step := 1; step <= T; step++ {
			alive := wt.StepWalks(ra, pos, lane)
			refAlive := 0
			for i, v := range ref {
				if v != NoVertex {
					ref[i] = referenceStep(g, rb, v)
				}
				if ref[i] != NoVertex {
					refAlive++
				}
			}
			if alive != refAlive {
				t.Fatalf("StepWalks step %d: %d alive, reference %d", step, alive, refAlive)
			}
			for i := range pos {
				if pos[i] != ref[i] {
					t.Fatalf("StepWalks step %d walk %d at %d, reference at %d", step, i, pos[i], ref[i])
				}
			}
		}
		if *ra != *rb {
			t.Fatal("StepWalks and the reference consumed different draws")
		}

		// WalkLanes against WalkStrided, lane by lane.
		k := 1 + int(width)%MaxWalkLanes
		W := 1 + int(walks)%24
		stride := W + int(walks>>8)%3
		lanes := make([]WalkLane, k)
		refs := make([][]uint32, k)
		refRng := make([]rng.Source, k)
		for l := range lanes {
			lanes[l].Start = startOf()
			lanes[l].Rng.Seed(seed + uint64(l))
			refRng[l] = lanes[l].Rng
			lanes[l].Out = make([]uint32, (T+1)*stride)
			refs[l] = make([]uint32, (T+1)*stride)
			for i := 0; i < W; i++ {
				wt.WalkStrided(&refRng[l], lanes[l].Start, T, stride, refs[l][i:])
			}
		}
		for lo := 0; lo < W; {
			hi := lo + 1 + int(pick.Uint32n(uint32(W-lo)))
			wt.WalkLanes(lanes, lo, hi, T, stride)
			lo = hi
		}
		for l := range lanes {
			for i, want := range refs[l] {
				if got := lanes[l].Out[i]; got != want {
					t.Fatalf("WalkLanes k=%d lane %d: step %d walk %d at %d, alone at %d", k, l, i/stride, i%stride, got, want)
				}
			}
			if lanes[l].Rng != refRng[l] {
				t.Fatalf("WalkLanes k=%d lane %d: generator state differs from the walk-alone stream", k, l)
			}
		}
	})
}
