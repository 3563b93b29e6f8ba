package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// writeIndexFile saves e's snapshot to a temp v3 file and returns its path.
func writeIndexFile(t *testing.T, e *Engine) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.simr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SaveIndex(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadIndexMmapMatchesStream(t *testing.T) {
	g := graph.CopyingModel(300, 4, 0.3, 5)
	p := DefaultParams()
	p.Seed = 7
	p.Workers = 2
	e := Build(g, p)
	path := writeIndexFile(t, e)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	es, err := LoadIndex(g, p, f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	em, closer, err := LoadIndexMmap(path, p)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := closer(); err != nil {
			t.Fatal(err)
		}
	}()
	// The read path LoadIndexMmap takes off unix: the file read whole and
	// verified, the graph taken from it.
	ef, err := loadIndexFile(path, p)
	if err != nil {
		t.Fatal(err)
	}

	if em.Graph().N() != g.N() || em.Graph().M() != g.M() {
		t.Fatalf("mapped graph is %v, want n=%d m=%d", em.Graph(), g.N(), g.M())
	}
	// Every query must come back byte-identical across the original, the
	// stream load, the mmap load and the file read.
	for u := uint32(0); u < 25; u++ {
		ra, rb, rc, rd := e.TopK(u, 5), es.TopK(u, 5), em.TopK(u, 5), ef.TopK(u, 5)
		if len(ra) != len(rb) || len(ra) != len(rc) || len(ra) != len(rd) {
			t.Fatalf("u=%d: result lengths differ (%d/%d/%d/%d)", u, len(ra), len(rb), len(rc), len(rd))
		}
		for i := range ra {
			if ra[i] != rb[i] || ra[i] != rc[i] || ra[i] != rd[i] {
				t.Fatalf("u=%d rank %d: %v / %v / %v / %v", u, i, ra[i], rb[i], rc[i], rd[i])
			}
		}
		v := (u*17 + 3) % uint32(g.N())
		if sa, sc, sd := e.SinglePair(u, v), em.SinglePair(u, v), ef.SinglePair(u, v); sa != sc || sa != sd {
			t.Fatalf("SinglePair(%d,%d): %v via build, %v via mmap, %v via file read", u, v, sa, sc, sd)
		}
	}
	if em.Stats().IndexBytes <= 0 {
		t.Fatal("mapped engine missing stats")
	}
}

func TestLoadIndexMmapRejectsCorruption(t *testing.T) {
	g := graph.CopyingModel(120, 4, 0.3, 5)
	p := DefaultParams()
	p.Workers = 1
	e := Build(g, p)
	path := writeIndexFile(t, e)
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		bad := mutate(bytes.Clone(saved))
		badPath := filepath.Join(t.TempDir(), "bad.simr")
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, closer, err := LoadIndexMmap(badPath, p); err == nil {
			closer()
			t.Fatalf("%s: mmap load succeeded on corrupt file", name)
		}
	}

	corrupt("header bit flip", func(b []byte) []byte { b[9] ^= 0x10; return b })
	corrupt("directory bit flip", func(b []byte) []byte { b[persistHeaderSize+5] ^= 0x01; return b })
	corrupt("truncated directory", func(b []byte) []byte { return b[:persistHeaderSize+persistSectionSize] })
	corrupt("wrong version", func(b []byte) []byte { b[4] = 2; return b })

	// Wrong params are rejected before any section is touched.
	pt := p
	pt.T = p.T + 1
	if _, closer, err := LoadIndexMmap(path, pt); err == nil {
		closer()
		t.Fatal("mmap load succeeded with mismatched T")
	}
}

func TestLoadIndexMmapAliasSlots(t *testing.T) {
	g := graph.CopyingModel(80, 3, 0.3, 5)
	p := DefaultParams()
	p.Workers = 1
	e := Build(g, p)
	prob, alias := testAliasSlots(g.M())
	if err := e.wt.AdoptSlots(prob, alias); err != nil {
		t.Fatal(err)
	}
	path := writeIndexFile(t, e)
	em, closer, err := LoadIndexMmap(path, p)
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	p2, a2 := em.wt.Slots()
	if p2 == nil {
		t.Fatal("mapped walk table lost its alias slots")
	}
	for i := range prob {
		if p2[i] != prob[i] || a2[i] != alias[i] {
			t.Fatalf("slot %d: got (%#x,%d), want (%#x,%d)", i, p2[i], a2[i], prob[i], alias[i])
		}
	}
}
