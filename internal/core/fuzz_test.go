package core

import (
	"bytes"
	"encoding/binary"
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
// four, the fixture re-laid with the retired alias-slot sections, and
// FuzzSectionDirectory's three.
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
	if e2, err := assemble(nil, p, input, nil, nil); err == nil {
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

// FuzzWalkDistDirectory builds both directory kinds over one arbitrary id
// set below an arbitrary n and holds each to a binary search of the sorted
// set on every id below n, hit or miss: the kind is chosen by density in
// production, but either must be right for any support.
func FuzzWalkDistDirectory(f *testing.F) {
	f.Add(uint16(0), []byte{0, 0})
	f.Add(uint16(63), []byte{0, 0, 0, 62, 0, 63})
	f.Add(uint16(64), []byte{0, 64, 0, 0, 0, 63, 0, 64})
	f.Add(uint16(999), []byte{3, 231, 0, 0, 1, 0, 1, 1, 2, 0, 2, 0})
	f.Add(uint16(4095), bytes.Repeat([]byte{7, 9, 15, 255, 0, 1, 8, 0}, 40))
	f.Add(uint16(65535), []byte{255, 255, 128, 0, 0, 31, 0, 32, 0, 33})
	dense := make([]byte, 0, 2*300)
	for i := 0; i < 300; i++ { // every id below 300, highest first
		dense = append(dense, byte((299-i)>>8), byte(299-i))
	}
	f.Add(uint16(299), dense)
	f.Fuzz(func(t *testing.T, top uint16, ids []byte) {
		n := int(top) + 1
		s := newScratch(n)
		s.beginTally()
		for ; len(ids) >= 2; ids = ids[2:] {
			s.tallyCount(uint32(int(ids[0])<<8|int(ids[1])) % uint32(n))
		}
		if len(s.touched) == 0 {
			return // a step without support has no directory
		}
		want := slices.Clone(s.touched)
		slices.Sort(want)
		var wd walkDist
		wd.reset(2, true)
		wd.setRankSupport(0, n, s.touched)
		wd.setBucketSupport(1, s)
		for step, kind := range []string{"rank", "bucket"} {
			if !slices.Equal(wd.verts[step], want) || wd.dense(step) != (step == 0) {
				t.Fatalf("n=%d %s: support %v, want %v", n, kind, wd.verts[step], want)
			}
			for w := uint32(0); w < uint32(n); w++ {
				i, found := slices.BinarySearch(want, w)
				if !found {
					i = -1
				}
				if got := wd.lookup(step, w); got != i {
					t.Fatalf("n=%d %s: lookup(%d) = %d, binary search = %d (support %v)", n, kind, w, got, i, want)
				}
			}
		}
	})
}
