package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

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
func parseTestDirectory(tb testing.TB, saved []byte) (persistHeader, []persistSection) {
	tb.Helper()
	var hdr persistHeader
	if err := binary.Read(bytes.NewReader(saved), binary.LittleEndian, &hdr); err != nil {
		tb.Fatal(err)
	}
	dir := make([]persistSection, hdr.SectionCount)
	if err := binary.Read(bytes.NewReader(saved[persistHeaderSize:]), binary.LittleEndian, dir); err != nil {
		tb.Fatal(err)
	}
	return hdr, dir
}

// relaySections re-lays saved with extra sections appended after its own,
// in SaveIndex's layout and with every CRC recomputed, so a loader sees a
// well-formed file: with no extras it is saved again, byte for byte.
func relaySections(tb testing.TB, saved []byte, extra ...persistPlan) []byte {
	tb.Helper()
	hdr, dir := parseTestDirectory(tb, saved)
	plan := make([]persistPlan, 0, len(dir)+len(extra))
	for _, d := range dir {
		b := d.in(saved)
		plan = append(plan, persistPlan{d.Kind, int(d.Count), func(i int) uint32 { return binary.LittleEndian.Uint32(b[4*i:]) }})
	}
	plan = append(plan, extra...)

	var out bytes.Buffer
	dir = make([]persistSection, len(plan))
	off := alignPage(uint64(persistHeaderSize + persistSectionSize*len(plan) + 4))
	for i, s := range plan {
		crc := crc32.New(persistCRCTable)
		if err := s.writeTo(crc); err != nil {
			tb.Fatal(err)
		}
		dir[i] = persistSection{Kind: s.kind, ElemSize: 4, Offset: off, Count: uint64(s.count), CRC: crc.Sum32()}
		off = alignPage(off + 4*uint64(s.count))
	}
	hdr.SectionCount = uint32(len(dir))
	binary.Write(&out, binary.LittleEndian, &hdr)
	binary.Write(&out, binary.LittleEndian, dir)
	binary.Write(&out, binary.LittleEndian, crc32.Checksum(out.Bytes(), persistCRCTable))
	for i, s := range plan {
		out.Write(make([]byte, dir[i].Offset-uint64(out.Len())))
		if err := s.writeTo(&out); err != nil {
			tb.Fatal(err)
		}
	}
	return out.Bytes()
}

// withRetiredAliasSections returns saved as a snapshot holding a
// weighted walk table wrote it before kinds 10 and 11 were retired: one
// acceptance threshold and one slot redirect per in-edge, valid CRCs.
func withRetiredAliasSections(tb testing.TB, saved []byte) []byte {
	tb.Helper()
	hdr, _ := parseTestDirectory(tb, saved)
	m := int(hdr.M)
	return relaySections(tb, saved,
		persistPlan{10, m, func(i int) uint32 { return ^uint32(0) - uint32(i) }},
		persistPlan{11, m, func(i int) uint32 { return uint32(i % 3) }})
}

// withRetiredGammaSection returns saved as it was written while the
// preprocess still built Algorithm 3's γ table, kind 5: n·T float32
// values in [0, 1], valid CRCs.
func withRetiredGammaSection(tb testing.TB, saved []byte) []byte {
	tb.Helper()
	hdr, _ := parseTestDirectory(tb, saved)
	return relaySections(tb, saved,
		persistPlan{5, int(hdr.N * hdr.T), func(i int) uint32 { return math.Float32bits(1 / float32(1+i%7)) }})
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

	// A clean file loads, by LoadIndex over g and as a read image over the
	// graph it embeds (LoadIndexMmap off unix); every corruption below is
	// rejected by both.
	if _, err := LoadIndex(g, p, bytes.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if _, err := assemble(nil, p, saved, nil); err != nil {
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
		if _, err := assemble(nil, p, bad, nil); err == nil {
			t.Fatalf("header/directory bit flip at offset %d loaded as a read image without error", off)
		}
	}

	// A flip inside any section payload must fail that section's CRC on
	// both read paths. Probe the first, middle, and last byte of every
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
			if _, err := assemble(nil, p, bad, nil); err == nil {
				t.Fatalf("section %d bit flip at +%d loaded as a read image without error", d.Kind, rel)
			}
		}
	}

	// Truncation anywhere is rejected.
	for _, cut := range []int{persistHeaderSize - 3, len(saved) / 2, len(saved) - 1} {
		if _, err := LoadIndex(g, p, bytes.NewReader(saved[:cut])); err == nil {
			t.Fatalf("file truncated to %d bytes loaded without error", cut)
		}
		if _, err := assemble(nil, p, saved[:cut], nil); err == nil {
			t.Fatalf("file truncated to %d bytes loaded as a read image without error", cut)
		}
	}

	// Retired sections, CRCs valid, are an unknown kind to every loader —
	// and not the fault of the re-lay, which reproduces the saved file
	// exactly.
	if !bytes.Equal(relaySections(t, saved), saved) {
		t.Fatal("re-laying the saved sections changed the file")
	}
	for _, tc := range []struct {
		what    string
		retired []byte
		kind    int
	}{
		{"γ section", withRetiredGammaSection(t, saved), 5},
		{"alias sections", withRetiredAliasSections(t, saved), 10},
	} {
		path := filepath.Join(t.TempDir(), "retired.simr")
		if err := os.WriteFile(path, tc.retired, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errStream := LoadIndex(g, p, bytes.NewReader(tc.retired))
		_, errRead := assemble(nil, p, tc.retired, nil)
		_, closer, errMmap := LoadIndexMmap(path, p)
		if errMmap == nil {
			closer()
		}
		want := fmt.Sprintf("unknown section kind %d", tc.kind)
		for name, err := range map[string]error{"LoadIndex": errStream, "read image": errRead, "LoadIndexMmap": errMmap} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s of a file with %s: err = %v, want %s", name, tc.what, err, want)
			}
		}
	}
}

// TestReadImageChecksAdjacencyEntries: a read image that brings its own
// graph must keep every adjacency entry below n, even with consistent
// CRCs — a walk would index past the vertex arrays otherwise.
func TestReadImageChecksAdjacencyEntries(t *testing.T) {
	g := graph.CopyingModel(150, 4, 0.3, 5)
	p := DefaultParams()
	p.Workers = 1
	var buf bytes.Buffer
	if err := Build(g, p).SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	hdr, dir := parseTestDirectory(t, bad)
	for i, d := range dir {
		if d.Kind == secInAdj {
			binary.LittleEndian.PutUint32(bad[d.Offset+8:], hdr.N)
			crc := crc32.Checksum(bad[d.Offset:d.Offset+4*d.Count], persistCRCTable)
			binary.LittleEndian.PutUint32(bad[persistHeaderSize+i*persistSectionSize+24:], crc)
		}
	}
	dirEnd := persistHeaderSize + len(dir)*persistSectionSize
	binary.LittleEndian.PutUint32(bad[dirEnd:], crc32.Checksum(bad[:dirEnd], persistCRCTable))
	if _, err := assemble(nil, p, bad, nil); err == nil || !strings.Contains(err.Error(), "in-adjacency entry") {
		t.Fatalf("err = %v, want an in-adjacency range rejection", err)
	}
}

// TestReadImageReleasesBuffer: a read image's sections are copied out,
// so the engine assembled from it keeps nothing of the buffer alive —
// with the graph given (LoadIndex) or taken from the file.
func TestReadImageReleasesBuffer(t *testing.T) {
	g := graph.CopyingModel(150, 4, 0.3, 5)
	p := DefaultParams()
	p.Workers = 1
	var saved bytes.Buffer
	if err := Build(g, p).SaveIndex(&saved); err != nil {
		t.Fatal(err)
	}
	for _, over := range []*graph.Graph{g, nil} {
		freed := make(chan struct{})
		load := func() *Engine {
			buf := bytes.Clone(saved.Bytes())
			runtime.SetFinalizer(&buf[0], func(*byte) { close(freed) })
			e, err := assemble(over, p, buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		e := load()
		if !collected(freed) {
			t.Fatalf("graph given %v: the image buffer is still reachable from the engine", over != nil)
		}
		answersQueries(t, e) // also keeps e alive past the collections
	}
}

// collected runs the collector until freed closes, for up to five
// seconds.
func collected(freed <-chan struct{}) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
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

// TestSaveIndexBytesPinned pins SaveIndex's output byte for byte: the
// length and CRC-32C of a fixed engine's file with every section kind
// present — the file written before the γ section was retired, with that
// section taken out and the rest re-laid.
func TestSaveIndexBytesPinned(t *testing.T) {
	g := graph.CopyingModel(150, 4, 0.3, 5)
	p := DefaultParams()
	p.Workers = 1
	e := Build(g, p)
	var buf bytes.Buffer
	if err := e.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	const wantLen, wantCRC = 33876, 0x7385e3cd
	if got := crc32.Checksum(buf.Bytes(), persistCRCTable); buf.Len() != wantLen || got != wantCRC {
		t.Fatalf("SaveIndex wrote %d bytes with CRC-32C %#08x, want %d bytes with %#08x", buf.Len(), got, wantLen, wantCRC)
	}
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
	if e2.idx != nil {
		t.Fatal("empty engine round-trip produced artifacts")
	}
}
