package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := graph.CopyingModel(300, 4, 0.3, 5)
	p := DefaultParams()
	p.Seed = 7
	p.Workers = 2
	e := Build(g, p)

	var buf bytes.Buffer
	if err := e.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadIndex(g, p, &buf)
	if err != nil {
		t.Fatal(err)
	}

	// Gamma tables identical.
	if len(e2.gamma) != len(e.gamma) {
		t.Fatalf("gamma length %d vs %d", len(e2.gamma), len(e.gamma))
	}
	for i := range e.gamma {
		if e.gamma[i] != e2.gamma[i] {
			t.Fatalf("gamma[%d] differs", i)
		}
	}
	// Index entries identical.
	for v := 0; v < e.g.N(); v++ {
		a, b := e.idx.rightRow(uint32(v)), e2.idx.rightRow(uint32(v))
		if len(a) != len(b) {
			t.Fatalf("index entry %d length differs", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("index entry %d differs", v)
			}
		}
	}
	// Queries identical.
	for u := uint32(0); u < 20; u++ {
		ra := e.TopK(u, 5)
		rb := e2.TopK(u, 5)
		if len(ra) != len(rb) {
			t.Fatalf("u=%d: result lengths differ", u)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("u=%d: results differ: %v vs %v", u, ra[i], rb[i])
			}
		}
	}
	if e2.Stats().IndexBytes <= 0 {
		t.Fatal("loaded engine missing stats")
	}
}

func TestLoadIndexRejectsMismatch(t *testing.T) {
	g := graph.CopyingModel(100, 4, 0.3, 5)
	p := DefaultParams()
	p.Workers = 1
	e := Build(g, p)
	var buf bytes.Buffer
	if err := e.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	// Wrong graph size.
	g2 := graph.CopyingModel(101, 4, 0.3, 5)
	if _, err := LoadIndex(g2, p, bytes.NewReader(saved)); err == nil {
		t.Fatal("expected error for n mismatch")
	}
	// Wrong T.
	pt := p
	pt.T = 7
	if _, err := LoadIndex(g, pt, bytes.NewReader(saved)); err == nil {
		t.Fatal("expected error for T mismatch")
	}
	// Wrong c.
	pc := p
	pc.C = 0.8
	if _, err := LoadIndex(g, pc, bytes.NewReader(saved)); err == nil {
		t.Fatal("expected error for c mismatch")
	}
	// Garbage input.
	if _, err := LoadIndex(g, p, strings.NewReader("not an index")); err == nil {
		t.Fatal("expected error for garbage")
	}
	// Truncated input.
	if _, err := LoadIndex(g, p, bytes.NewReader(saved[:len(saved)/2])); err == nil {
		t.Fatal("expected error for truncation")
	}
}

// parseTestDirectory decodes the v3 header and directory of saved;
// test-side mirror of the loader so corruption can target exact bytes.
func parseTestDirectory(t *testing.T, saved []byte) (persistHeader, []persistSection) {
	t.Helper()
	var hdr persistHeader
	if err := binary.Read(bytes.NewReader(saved), binary.LittleEndian, &hdr); err != nil {
		t.Fatal(err)
	}
	dir := make([]persistSection, hdr.SectionCount)
	if err := binary.Read(bytes.NewReader(saved[persistHeaderSize:]), binary.LittleEndian, dir); err != nil {
		t.Fatal(err)
	}
	return hdr, dir
}

func TestLoadIndexV3Corruption(t *testing.T) {
	g := graph.CopyingModel(150, 4, 0.3, 5)
	p := DefaultParams()
	p.Workers = 1
	e := Build(g, p)
	var buf bytes.Buffer
	if err := e.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	// A clean file loads.
	if _, err := LoadIndex(g, p, bytes.NewReader(saved)); err != nil {
		t.Fatal(err)
	}

	_, dir := parseTestDirectory(t, saved)
	if len(dir) < 4 {
		t.Fatalf("expected several sections, directory has %d", len(dir))
	}

	// A flip anywhere in the header or directory must fail the header CRC.
	for _, off := range []int{9, persistHeaderSize + 5, persistHeaderSize + persistSectionSize + 17} {
		bad := bytes.Clone(saved)
		bad[off] ^= 0x10
		if _, err := LoadIndex(g, p, bytes.NewReader(bad)); err == nil {
			t.Fatalf("header/directory bit flip at offset %d loaded without error", off)
		}
	}

	// A flip inside any section payload must fail that section's CRC on
	// the stream path. Probe the first, middle, and last byte of every
	// non-empty section.
	for _, d := range dir {
		if d.Count == 0 {
			continue
		}
		last := 4*d.Count - 1
		for _, rel := range []uint64{0, last / 2, last} {
			bad := bytes.Clone(saved)
			bad[d.Offset+rel] ^= 0x04
			_, err := LoadIndex(g, p, bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("section %d bit flip at +%d loaded without error", d.Kind, rel)
			}
		}
	}

	// Truncation anywhere is rejected.
	for _, cut := range []int{persistHeaderSize - 3, len(saved) / 2, len(saved) - 1} {
		if _, err := LoadIndex(g, p, bytes.NewReader(saved[:cut])); err == nil {
			t.Fatalf("file truncated to %d bytes loaded without error", cut)
		}
	}
}

func TestLoadIndexV3RejectsWrongGraph(t *testing.T) {
	// Two graphs with identical n and m but different edges: the embedded
	// CSR comparison must catch the swap, which v1/v2 could not.
	ga := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	gb := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 2}})
	p := DefaultParams()
	p.Workers = 1
	e := Build(ga, p)
	var buf bytes.Buffer
	if err := e.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(gb, p, bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "different graph") {
		t.Fatalf("err = %v, want different-graph rejection", err)
	}
}

// TestLoadIndexRejectsLegacyVersions: the v1/v2 row-wise formats have
// no reader any more, and a version from the future never had one; all
// three must fail on the 8-byte prefix alone with the version error.
func TestLoadIndexRejectsLegacyVersions(t *testing.T) {
	g := graph.CopyingModel(20, 3, 0.3, 5)
	p := DefaultParams()
	for _, version := range []uint32{1, 2, persistVersion + 1} {
		var prefix [8]byte
		binary.LittleEndian.PutUint32(prefix[0:], persistMagic)
		binary.LittleEndian.PutUint32(prefix[4:], version)
		want := fmt.Sprintf("unsupported index version %d", version)
		if _, err := LoadIndex(g, p, bytes.NewReader(prefix[:])); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: err = %v, want %q", version, err, want)
		}
	}
}

func TestSaveLoadAliasSlots(t *testing.T) {
	// Non-trivial walk-table slots (the weighted-walk extension) must
	// round-trip through the alias sections.
	g := graph.CopyingModel(80, 3, 0.3, 5)
	p := DefaultParams()
	p.Workers = 1
	e := Build(g, p)
	m := g.M()
	prob := make([]uint32, m)
	alias := make([]uint32, m)
	for i := range prob {
		prob[i] = ^uint32(0) - uint32(i)
		alias[i] = uint32(i % 3)
	}
	if err := e.wt.AdoptSlots(prob, alias); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadIndex(g, p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	p2, a2 := e2.wt.Slots()
	if p2 == nil {
		t.Fatal("loaded walk table lost its alias slots")
	}
	for i := range prob {
		if p2[i] != prob[i] || a2[i] != alias[i] {
			t.Fatalf("slot %d: got (%#x,%d), want (%#x,%d)", i, p2[i], a2[i], prob[i], alias[i])
		}
	}
}

// FuzzSectionDirectory feeds mutated index files — and in particular
// mutated headers and section directories — through LoadIndex: any
// input may be rejected, none may panic or over-allocate.
func FuzzSectionDirectory(f *testing.F) {
	g := graph.CopyingModel(40, 3, 0.3, 5)
	p := DefaultParams()
	p.Workers = 1
	e := Build(g, p)
	var buf bytes.Buffer
	if err := e.SaveIndex(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:persistHeaderSize+3*persistSectionSize])
	// A retired version-2 header: rejected on the version field.
	legacy := bytes.Clone(buf.Bytes()[:persistHeaderSize])
	binary.LittleEndian.PutUint32(legacy[4:], 2)
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, data []byte) {
		e2, err := LoadIndex(g, p, bytes.NewReader(data))
		if err == nil && e2 == nil {
			t.Fatal("nil engine without error")
		}
	})
}

// failingWriter errors after n bytes.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errInjected
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errInjected
	}
	f.n -= len(p)
	return len(p), nil
}

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected failure" }

func TestSaveIndexWriteFailure(t *testing.T) {
	g := graph.CopyingModel(200, 4, 0.3, 5)
	p := DefaultParams()
	p.Workers = 1
	e := Build(g, p)
	for _, budget := range []int{0, 8, 40, 2000} {
		if err := e.SaveIndex(&failingWriter{n: budget}); err == nil {
			t.Fatalf("budget %d: expected write error", budget)
		}
	}
}

func TestSaveLoadUnpreprocessedEngine(t *testing.T) {
	g := graph.CopyingModel(100, 4, 0.3, 5)
	p := DefaultParams()
	p.Workers = 1
	e := New(g, p) // no preprocess at all
	var buf bytes.Buffer
	if err := e.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadIndex(g, p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if e2.gamma != nil || e2.idx != nil {
		t.Fatal("empty engine round-trip produced artifacts")
	}
}

func TestSaveLoadWithoutGamma(t *testing.T) {
	g := graph.CopyingModel(100, 4, 0.3, 5)
	p := DefaultParams()
	p.Workers = 1
	p.DisableL2 = true // no gamma computed
	e := Build(g, p)
	var buf bytes.Buffer
	if err := e.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadIndex(g, p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if e2.gamma != nil {
		t.Fatal("gamma should be absent")
	}
	if e2.idx == nil {
		t.Fatal("index should be present")
	}
}
