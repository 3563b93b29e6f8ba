package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzLoadIndex feeds corrupt index files — mutated headers, section
// directories and payloads — to the one assembler under both of its
// policies. As a read image (LoadIndex over the fixture graph, and over
// the graph the file embeds, as LoadIndexMmap does off unix) any input
// may be rejected, but whatever loads must answer queries. As a mapped
// image (LoadIndexMmap over a page-aligned copy in a file) any input may
// be rejected and none may panic; mapped payloads are not verified, by
// design, so what loads is not queried. Its seeds are the fixture's own
// four, the fixture re-laid with the retired alias-slot sections and with
// the retired γ section, the fixture saved by a linear build (graph
// sections alone, no H), and FuzzSectionDirectory's three.
func FuzzLoadIndex(f *testing.F) {
	g, p := loaderFixture()
	var valid bytes.Buffer
	if err := Build(g, p).SaveIndex(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:10])
	flipped := append([]byte(nil), valid.Bytes()...)
	if len(flipped) > 40 {
		flipped[33] ^= 0xff
	}
	f.Add(flipped)
	f.Add(withRetiredAliasSections(f, valid.Bytes()))
	f.Add(withRetiredGammaSection(f, valid.Bytes()))
	lp := p
	lp.Strategy = CandidatesLinear
	var indexless bytes.Buffer
	if err := Build(g, lp).SaveIndex(&indexless); err != nil {
		f.Fatal(err)
	}
	f.Add(indexless.Bytes())
	addDirectorySeeds(f)
	f.Fuzz(func(t *testing.T, input []byte) { loadAtBothLevels(t, g, p, input) })
}

// FuzzSectionDirectory runs FuzzLoadIndex's body from the directory seeds
// alone, so a -fuzz run mutates headers and section directories without
// the fixture's payload seeds in its corpus.
func FuzzSectionDirectory(f *testing.F) {
	g, p := loaderFixture()
	addDirectorySeeds(f)
	f.Fuzz(func(t *testing.T, input []byte) { loadAtBothLevels(t, g, p, input) })
}

// loaderFixture is the graph and parameters the loader fuzz targets load
// against.
func loaderFixture() (*graph.Graph, Params) {
	p := DefaultParams()
	p.Workers = 1
	p.RAlpha = 100
	return graph.CopyingModel(60, 4, 0.3, 1), p
}

// addDirectorySeeds adds a second graph's file (rejected over the fixture
// graph, loadable over its own), its header and first three directory
// entries, and a retired version-2 header (rejected on the version field).
func addDirectorySeeds(f *testing.F) {
	p := DefaultParams()
	p.Workers = 1
	var other bytes.Buffer
	if err := Build(graph.CopyingModel(40, 3, 0.3, 5), p).SaveIndex(&other); err != nil {
		f.Fatal(err)
	}
	f.Add(other.Bytes())
	f.Add(other.Bytes()[:persistHeaderSize+3*persistSectionSize])
	legacy := bytes.Clone(other.Bytes()[:persistHeaderSize])
	binary.LittleEndian.PutUint32(legacy[4:], 2)
	f.Add(legacy)
}

// loadAtBothLevels sends input through the assembler as a read image
// (LoadIndex over g, and over the graph the file embeds) and as a mapped
// image (LoadIndexMmap over a copy in a file).
func loadAtBothLevels(t *testing.T, g *graph.Graph, p Params, input []byte) {
	if e2, err := LoadIndex(g, p, bytes.NewReader(input)); err == nil {
		answersQueries(t, e2)
	}
	if e2, err := assemble(nil, p, input, nil); err == nil {
		answersQueries(t, e2)
	}
	path := filepath.Join(t.TempDir(), "index.simr")
	if err := os.WriteFile(path, input, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, closer, err := LoadIndexMmap(path, p); err == nil {
		if err := closer(); err != nil {
			t.Fatal(err)
		}
	}
}

// answersQueries checks that a loaded engine answers a query without
// panicking and with well-formed results.
func answersQueries(t *testing.T, e *Engine) {
	t.Helper()
	n := e.Graph().N()
	if n == 0 {
		return
	}
	res := e.TopK(uint32(min(3, n-1)), 5)
	if len(res) > 5 {
		t.Fatalf("loaded index returned %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("loaded index returned unsorted results")
		}
	}
}

// FuzzWalkDistDirectory holds the scoring index (slotIndex) to a binary
// search: up to four steps over arbitrary, overlapping id sets below an
// arbitrary n — three bytes an id, the first picking its step — each
// ordered by orderTouched, and every id below n must probe to what
// slices.BinarySearch finds at every step, hit or miss. One scratch serves
// every input, so after each clear its n-entry union map must be all zero
// again: a stale entry would answer for the next input's vertices.
func FuzzWalkDistDirectory(f *testing.F) {
	f.Add(uint16(0), []byte{0, 0, 0})
	f.Add(uint16(63), []byte{0, 0, 0, 1, 0, 62, 1, 0, 63, 2, 0, 62})
	f.Add(uint16(64), []byte{0, 0, 64, 1, 0, 0, 2, 0, 63, 3, 0, 64, 0, 0, 1})
	f.Add(uint16(999), []byte{0, 3, 231, 0, 0, 0, 1, 1, 0, 1, 1, 1, 2, 2, 0, 3, 2, 0})
	f.Add(uint16(4095), bytes.Repeat([]byte{7, 9, 15, 255, 0, 1, 8, 0, 3}, 40))
	f.Add(uint16(65535), []byte{0, 255, 255, 1, 128, 0, 2, 0, 31, 3, 0, 32, 0, 0, 33})
	dense := make([]byte, 0, 3*600)
	for i := 0; i < 600; i++ { // every id below 300 at two steps, highest first
		dense = append(dense, byte(i%2), byte((299-i/2)>>8), byte(299-i/2))
	}
	f.Add(uint16(299), dense)
	const top = 1 << 16
	s := newScratch(top)
	var wd walkDist
	f.Fuzz(func(t *testing.T, last uint16, ids []byte) {
		n := uint32(last) + 1
		var sets [4][]uint32
		for ; len(ids) >= 3; ids = ids[3:] {
			k := ids[0] % 4
			sets[k] = append(sets[k], (uint32(ids[1])<<8|uint32(ids[2]))%n)
		}
		wd.reset(len(sets))
		steps := 0
		for _, set := range sets {
			if len(set) == 0 {
				continue // leading nonempty steps only: a distribution ends at its first empty one
			}
			s.beginTally()
			for _, w := range set {
				s.tallyCount(w)
			}
			got := make([]uint32, len(s.touched))
			s.orderTouched(got, s.touched)
			slices.Sort(set)
			want := slices.Compact(set)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d step %d: ordered %v, want %v", n, steps, got, want)
			}
			wd.verts[steps] = append(wd.verts[steps], got...)
			steps++
		}
		x := &s.slots
		x.build(&wd, top)
		if len(x.slots) != steps*x.stride {
			t.Fatalf("n=%d: %d slot words for %d steps of stride %d", n, len(x.slots), steps, x.stride)
		}
		for step := 0; step < steps; step++ {
			for w := uint32(0); w < n; w++ {
				i, found := slices.BinarySearch(wd.verts[step], w)
				if !found {
					i = -1
				}
				if got := x.lookup(step, w); got != i {
					t.Fatalf("n=%d step %d: probe(%d) = %d, binary search = %d (support %v)", n, step, w, got, i, wd.verts[step])
				}
			}
		}
		x.clear()
		if i := slices.IndexFunc(x.uid, func(id uint32) bool { return id != 0 }); i >= 0 || len(x.uid) != top {
			t.Fatalf("n=%d: after the clear, vertex %d of %d keeps union id %d", n, i, len(x.uid), x.uid[max(i, 0)])
		}
	})
}

// FuzzQueryPush holds the query-side push to its three properties on small
// random graphs, from a random vertex under a random RAlpha: it is the
// dense recurrence with the same share rule bit for bit (refPush), every
// cell is at or below the unthresholded push, and step t relaxes at most
// RAlpha times the mass of step t−1.
func FuzzQueryPush(f *testing.F) {
	f.Add(uint8(12), []byte{0, 1, 1, 2, 2, 0, 3, 1, 4, 2, 5, 5, 6, 1, 7, 1}, uint8(1), uint16(3))
	f.Add(uint8(1), []byte{}, uint8(0), uint16(0))
	f.Add(uint8(40), []byte("a dense enough edge list for a few dozen vertices"), uint8(7), uint16(10000))
	f.Fuzz(func(t *testing.T, nv uint8, edges []byte, from uint8, r uint16) {
		n := 1 + int(nv%48)
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdge(uint32(int(edges[i])%n), uint32(int(edges[i+1])%n))
		}
		g := b.Build()
		p := DefaultParams()
		p.RAlpha = 1 + int(r)
		e := New(g, p)
		s := e.getScratch()
		defer e.putScratch(s)
		u := uint32(int(from) % n)
		var pushed, exact walkDist
		e.walkDistInto(&pushed, s, u)
		label := fmt.Sprintf("n=%d u=%d RAlpha=%d", n, u, p.RAlpha)
		sameAsRef(t, label, &pushed, refPush(g, p.T, u, 1/float64(p.RAlpha)))
		e.pushWalkDistInto(&exact, s, u, 0, true)
		requireBelowExact(t, label, &pushed, &exact)
		requireStepWork(t, label, e.Snapshot, &pushed, p.RAlpha)
	})
}

// FuzzCandWalks holds candWalks to the prefix property the lane kernel
// stands on, on small random graphs whose in-degree-0 vertices kill walks:
// for a random group of candidates, R and cut Rr, walks [0, Rr) and then
// [Rr, R) run to a random steps ∈ [0, T−1] write rows 1..steps equal to a
// full T−1 run of all R walks, and the full run equals refCandWalks' walks
// drawn one at a time on their own generators. Row 0 and the rows past
// steps are never written.
func FuzzCandWalks(f *testing.F) {
	f.Add(uint8(12), []byte{0, 1, 1, 2, 2, 0, 3, 1, 4, 2, 5, 5, 6, 1, 7, 1}, uint8(1), uint8(3), uint8(30), uint8(10), uint8(3))
	f.Add(uint8(1), []byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(40), []byte("a dense enough edge list for a few dozen vertices"), uint8(7), uint8(31), uint8(99), uint8(10), uint8(10))
	f.Fuzz(func(t *testing.T, nv uint8, edges []byte, from, width, r, rr, st uint8) {
		n := 1 + int(nv%48)
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdge(uint32(int(edges[i])%n), uint32(int(edges[i+1])%n))
		}
		e := New(b.Build(), DefaultParams())
		T := e.p.T
		R := 1 + int(r)%120
		Rr := int(rr) % (R + 1)
		steps := int(st) % T
		const unwritten = graph.NoVertex - 1
		full := newWalkLanes(1+int(width)%graph.MaxWalkLanes, T*R)
		part := newWalkLanes(len(full), T*R)
		for l := range full {
			v := uint32((int(from) + 7*l) % n)
			full[l].Start, part[l].Start = v, v
			for i := range part[l].Out {
				part[l].Out[i] = unwritten
			}
		}
		e.candWalks(full, 0, R, T-1, R)
		e.candWalks(part, 0, Rr, steps, R)
		e.candWalks(part, Rr, R, steps, R)
		ref := make([]uint32, T*R)
		for l := range full {
			v := full[l].Start
			refCandWalks(e.Snapshot, v, R, ref)
			label := fmt.Sprintf("n=%d lane %d v=%d R=%d Rr=%d steps=%d", n, l, v, R, Rr, steps)
			if !slices.Equal(full[l].Out[R:], ref[R:]) {
				t.Fatalf("%s: the full run differs from the walks drawn one at a time", label)
			}
			for row := 0; row < T; row++ {
				got, want := part[l].Out[row*R:(row+1)*R], full[l].Out[row*R:(row+1)*R]
				if row >= 1 && row <= steps && !slices.Equal(got, want) {
					t.Fatalf("%s: row %d is %v, the full run's %v", label, row, got, want)
				}
				if (row == 0 || row > steps) && slices.IndexFunc(got, func(w uint32) bool { return w != unwritten }) >= 0 {
					t.Fatalf("%s: row %d was written: %v", label, row, got)
				}
			}
		}
	})
}
