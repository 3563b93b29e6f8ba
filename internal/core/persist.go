package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/graph"
)

// Index persistence: the preprocess results (the γ table of Algorithm 3
// and the candidate index of Algorithm 4) can be saved after Build and
// reloaded later, so the O(n) preprocess is a one-time job per graph.
//
// Version 3 (current) is a sectioned, page-aligned container designed
// for zero-copy loads: every array the snapshot serves from — the
// graph's in/out CSR, the γ table and the candidate index's four CSR
// arrays — is stored as a flat little-endian section aligned to
// persistPageSize, so a loader may either read the file into memory or
// mmap it and serve straight from the mapping (see LoadIndexMmap).
// Layout:
//
//	header (48 bytes):
//	  magic uint32 | version uint32 | n uint32 | T uint32
//	  c float64 | seed uint64 | m uint64 (in-edge count)
//	  pageSize uint32 | sectionCount uint32
//	directory: sectionCount × (32 bytes):
//	  kind uint32 | elemSize uint32 | offset uint64 | count uint64
//	  crc uint32 (CRC-32C of the section payload) | reserved uint32
//	headerCRC uint32   (CRC-32C of header + directory)
//	zero padding, then the sections at their stated offsets,
//	ascending, each offset a multiple of pageSize.
//
// Every loader hands the image to one assembler, which applies one of
// two policies. A read image (LoadIndex; LoadIndexMmap off unix) has
// every section verified against its directory CRC and every entry
// range-checked, and its sections are copied out so the buffer can be
// released. A mapped image (LoadIndexMmap on unix) has its header and
// directory CRC verified only — checksumming the payload would make cold
// start O(file size), defeating the point — plus O(n) structural checks
// on the offset arrays, and is served in place; payload corruption is
// left to the filesystem, exactly like any other mmapped store.
//
// Versions 1 and 2 were row-wise stream formats that did not embed the
// graph; nothing has written them since v3 and their reader is gone.
// LoadIndex rejects them, like any other version it does not know.

const (
	persistMagic    = 0x53494D52 // "SIMR"
	persistVersion  = 3
	persistPageSize = 4096
)

// Section kinds of the v3 container.
const (
	secInStart = 1 + iota
	secInAdj
	secOutStart
	secOutAdj
	secGamma
	secRightStart
	secRightAdj
	secLeftStart
	secLeftAdj
	// 10 and 11 held a weighted walk table's alias slots; never reuse them.
)

// sectionNames names the section kinds in load errors.
var sectionNames = map[uint32]string{
	secInStart: "in-offset", secInAdj: "in-adjacency", secOutStart: "out-offset", secOutAdj: "out-adjacency",
	secRightStart: "right-offset", secRightAdj: "right-adjacency", secLeftStart: "left-offset", secLeftAdj: "left-adjacency",
}

// persistHeader is the fixed 48-byte v3 header.
type persistHeader struct {
	Magic, Version uint32
	N, T           uint32
	C              float64
	Seed           uint64
	M              uint64
	PageSize       uint32
	SectionCount   uint32
}

// persistSection is one 32-byte directory entry.
type persistSection struct {
	Kind     uint32
	ElemSize uint32
	Offset   uint64
	Count    uint64
	CRC      uint32
	Reserved uint32
}

// in returns the section's payload within the image data.
func (d persistSection) in(data []byte) []byte { return data[d.Offset : d.Offset+4*d.Count] }

const (
	persistHeaderSize  = 48
	persistSectionSize = 32
)

// persistCRCTable is the Castagnoli polynomial table shared by save/load.
var persistCRCTable = crc32.MakeTable(crc32.Castagnoli)

// wordChunk is the staging buffer size (in 4-byte elements) used when
// encoding a section, so large arrays never need a full-size transient
// copy.
const wordChunk = 1024

// alignPage rounds off up to the next persistPageSize multiple.
func alignPage(off uint64) uint64 {
	return (off + persistPageSize - 1) &^ uint64(persistPageSize-1)
}

// persistPlan describes one section to be written: its kind, its length
// and its i-th stored word (γ stores IEEE-754 bits).
type persistPlan struct {
	kind  uint32
	count int
	word  func(i int) uint32
}

// writeTo writes the section's little-endian payload to w wordChunk
// words at a time. SaveIndex runs it once into the CRC and once into
// the file.
func (s *persistPlan) writeTo(w io.Writer) error {
	var buf [wordChunk * 4]byte
	for off := 0; off < s.count; off += wordChunk {
		n := min(s.count-off, wordChunk)
		for i := range n {
			binary.LittleEndian.PutUint32(buf[i*4:], s.word(off+i))
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
	}
	return nil
}

// sectionPlan lists the snapshot's sections in file order.
func (e *Snapshot) sectionPlan() []persistPlan {
	words := func(kind uint32, ws []uint32) persistPlan {
		return persistPlan{kind, len(ws), func(i int) uint32 { return ws[i] }}
	}
	inS, inA := e.g.InCSR()
	outS, outA := e.g.OutCSR()
	plan := []persistPlan{words(secInStart, inS), words(secInAdj, inA), words(secOutStart, outS), words(secOutAdj, outA)}
	if e.gamma != nil {
		plan = append(plan, persistPlan{secGamma, len(e.gamma), func(i int) uint32 { return math.Float32bits(e.gamma[i]) }})
	}
	if e.idx != nil {
		plan = append(plan,
			words(secRightStart, e.idx.rightStart), words(secRightAdj, e.idx.rightAdj),
			words(secLeftStart, e.idx.leftStart), words(secLeftAdj, e.idx.leftAdj))
	}
	return plan
}

// SaveIndex writes the snapshot — graph CSR and preprocess results — as
// a version-3 sectioned index file.
func (e *Snapshot) SaveIndex(w io.Writer) error {
	plan := e.sectionPlan()

	// Lay the sections out page-aligned after the header block and
	// checksum each payload.
	dir := make([]persistSection, len(plan))
	off := alignPage(uint64(persistHeaderSize + persistSectionSize*len(plan) + 4))
	for i := range plan {
		crc := crc32.New(persistCRCTable)
		if err := plan[i].writeTo(crc); err != nil {
			return err
		}
		dir[i] = persistSection{
			Kind:     plan[i].kind,
			ElemSize: 4,
			Offset:   off,
			Count:    uint64(plan[i].count),
			CRC:      crc.Sum32(),
		}
		off = alignPage(off + 4*dir[i].Count)
	}

	// Header + directory are built in memory first: their own CRC
	// trailer covers the exact bytes written.
	var hb bytes.Buffer
	hdr := persistHeader{
		Magic: persistMagic, Version: persistVersion,
		N: uint32(e.g.N()), T: uint32(e.p.T),
		C: e.p.C, Seed: e.p.Seed,
		M:        uint64(e.g.M()),
		PageSize: persistPageSize, SectionCount: uint32(len(dir)),
	}
	if err := binary.Write(&hb, binary.LittleEndian, &hdr); err != nil {
		return err
	}
	if err := binary.Write(&hb, binary.LittleEndian, dir); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hb.Bytes()); err != nil {
		return err
	}
	hcrc := crc32.Checksum(hb.Bytes(), persistCRCTable)
	if err := binary.Write(bw, binary.LittleEndian, hcrc); err != nil {
		return err
	}

	pos := uint64(hb.Len()) + 4
	var zeros [persistPageSize]byte
	for i := range plan {
		pad := dir[i].Offset - pos
		if _, err := bw.Write(zeros[:pad]); err != nil {
			return err
		}
		if err := plan[i].writeTo(bw); err != nil {
			return err
		}
		pos = dir[i].Offset + 4*dir[i].Count
	}
	return bw.Flush()
}

// validateIndexCSR checks one CSR offset/adjacency pair of the
// candidate index: offsets monotone from 0 to len(adj), and with
// entryCheck (read images only: it is O(m) over the payload) entries < n.
func validateIndexCSR(name string, n int, start, adj []uint32, entryCheck bool) error {
	if len(start) != n+1 {
		return fmt.Errorf("core: corrupt index: %s offsets have %d entries, want %d", name, len(start), n+1)
	}
	if start[0] != 0 {
		return fmt.Errorf("core: corrupt index: %s offsets start at %d", name, start[0])
	}
	for i := 0; i < n; i++ {
		if start[i+1] < start[i] {
			return fmt.Errorf("core: corrupt index: %s offsets decrease at %d", name, i)
		}
	}
	if int(start[n]) != len(adj) {
		return fmt.Errorf("core: corrupt index: %s offsets end at %d, want %d", name, start[n], len(adj))
	}
	if entryCheck {
		return entriesBelow(name, n, adj)
	}
	return nil
}

// entriesBelow checks that every adjacency entry names a vertex < n.
func entriesBelow(name string, n int, adj []uint32) error {
	for _, v := range adj {
		if int(v) >= n {
			return fmt.Errorf("core: corrupt index: %s entry %d out of range", name, v)
		}
	}
	return nil
}

// finishLoad installs loaded artifacts and recomputes size stats.
func (e *Engine) finishLoad() {
	e.stats.IndexBytes = int64(len(e.gamma)) * 4
	if e.idx != nil {
		e.stats.IndexBytes += e.idx.bytes()
	}
}

// LoadIndex reads an index saved by SaveIndex into a new engine over
// the same graph. The stored n, m, T and c must match, every section is
// verified against its directory CRC, and the embedded graph CSR must
// be byte-identical to g's. Any version but the current one is
// rejected.
func LoadIndex(g *graph.Graph, p Params, r io.Reader) (*Engine, error) {
	p = p.normalized() // compare stored params against what New would use
	// The head — fixed header, directory, their CRC — is read first: its
	// length is in the fixed header, which is read in two steps so that a
	// foreign or retired format fails on its magic and version alone, and
	// the image is sized only from a directory that has passed its CRC and
	// the n and m of g.
	head := make([]byte, persistHeaderSize)
	if _, err := io.ReadFull(r, head[:8]); err != nil {
		return nil, fmt.Errorf("core: reading index header: %w", err)
	}
	if err := checkV3Magic(head); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, head[8:]); err != nil {
		return nil, fmt.Errorf("core: reading index header: %w", err)
	}
	headLen, err := v3HeadLen(head)
	if err != nil {
		return nil, err
	}
	head = append(head, make([]byte, headLen-persistHeaderSize)...)
	if _, err := io.ReadFull(r, head[persistHeaderSize:]); err != nil {
		return nil, fmt.Errorf("core: reading section directory (truncated index file?): %w", err)
	}
	// A stream has no length to hold the sections against: a section that
	// runs past the end fails the read below.
	_, dir, err := parseV3Container(head, math.MaxUint64, g, p)
	if err != nil {
		return nil, err
	}
	size := uint64(headLen)
	if len(dir) > 0 {
		size = dir[len(dir)-1].Offset + 4*dir[len(dir)-1].Count
	}
	data := make([]byte, size)
	copy(data, head)
	if _, err := io.ReadFull(r, data[headLen:]); err != nil {
		return nil, fmt.Errorf("core: reading index sections (truncated index file?): %w", err)
	}
	return assemble(g, p, data, nil, nil)
}

// loadIndexFile is LoadIndexMmap where there is no mmap (mmap_stub.go):
// the file is read whole and assembled as a read image over the graph
// it embeds.
func loadIndexFile(path string, p Params) (*Engine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return assemble(nil, p, data, nil, nil)
}

// assemble turns a v3 image into an engine; every loader ends here. g is
// the graph the image must embed, or nil to serve the one it embeds. A
// read image (words and floats nil) gets the read policy above, γ range
// and, with g nil, graph adjacency entries included; a mapped image also
// comes viewed in place as words and floats (mmap_unix.go), and its
// sections are served from the view.
func assemble(g *graph.Graph, p Params, data []byte, words []uint32, floats []float32) (*Engine, error) {
	p = p.normalized()
	hdr, dir, err := parseV3Container(data, uint64(len(data)), g, p)
	if err != nil {
		return nil, err
	}
	read := words == nil
	secs := make(map[uint32]persistSection, len(dir))
	for _, d := range dir {
		if read {
			if crc := crc32.Checksum(d.in(data), persistCRCTable); crc != d.CRC {
				return nil, fmt.Errorf("core: section %d checksum mismatch (stored %#08x, computed %#08x): corrupted index file", d.Kind, d.CRC, crc)
			}
		}
		secs[d.Kind] = d
	}
	// The graph CSR is required, and each optional group comes whole.
	need := []uint32{secInStart, secInAdj, secOutStart, secOutAdj}
	if _, ok := secs[secRightStart]; ok {
		need = append(need, secRightAdj, secLeftStart, secLeftAdj)
	}
	for _, kind := range need {
		if _, ok := secs[kind]; !ok {
			return nil, fmt.Errorf("core: corrupt index: missing %s section", sectionNames[kind])
		}
	}
	// section serves one section's words: in place from a mapped image, a
	// decoded copy from a read one.
	section := func(kind uint32) []uint32 {
		if d := secs[kind]; !read {
			return words[d.Offset/4:][:d.Count]
		}
		return decodeWords(secs[kind].in(data))
	}

	n := int(hdr.N)
	if g != nil {
		// The embedded CSR must match the graph the index is loaded over —
		// v3's defence against loading an index for the wrong graph.
		inS, inA := g.InCSR()
		outS, outA := g.OutCSR()
		for i, want := range [][]uint32{inS, inA, outS, outA} {
			if !sameWords(secs[need[i]].in(data), want) {
				return nil, fmt.Errorf("core: index was built for a different graph (%s section differs)", sectionNames[need[i]])
			}
		}
	} else {
		inA, outA := section(secInAdj), section(secOutAdj)
		if g, err = graph.FromCSR(n, section(secInStart), inA, section(secOutStart), outA); err != nil {
			return nil, err
		}
		if read {
			if err := entriesBelow("in-adjacency", n, inA); err != nil {
				return nil, err
			}
			if err := entriesBelow("out-adjacency", n, outA); err != nil {
				return nil, err
			}
		}
	}

	e := New(g, p)
	if d, ok := secs[secGamma]; ok && !read {
		e.gamma = floats[d.Offset/4:][:d.Count]
	} else if ok {
		b := d.in(data)
		e.gamma = make([]float32, d.Count)
		for i := range e.gamma {
			v := math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
			if v < 0 || v > 1.0001 || math.IsNaN(float64(v)) {
				return nil, fmt.Errorf("core: corrupt gamma table (entry %v)", v)
			}
			e.gamma[i] = v
		}
	}
	if _, ok := secs[secRightStart]; ok {
		idx := &candidateIndex{
			rightStart: section(secRightStart), rightAdj: section(secRightAdj),
			leftStart: section(secLeftStart), leftAdj: section(secLeftAdj),
		}
		if err := validateIndexCSR("right", n, idx.rightStart, idx.rightAdj, read); err != nil {
			return nil, err
		}
		if err := validateIndexCSR("left", n, idx.leftStart, idx.leftAdj, read); err != nil {
			return nil, err
		}
		e.idx = idx
	}
	e.finishLoad()
	return e, nil
}

// decodeWords copies a little-endian payload out into a fresh slice.
func decodeWords(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// sameWords reports whether b is exactly want's little-endian encoding.
func sameWords(b []byte, want []uint32) bool {
	if len(b) != 4*len(want) {
		return false
	}
	for i, x := range want {
		if binary.LittleEndian.Uint32(b[4*i:]) != x {
			return false
		}
	}
	return true
}

// checkSectionCount validates a directory entry's element count against
// the graph and params before any allocation is sized from it, so a
// corrupt or adversarial directory cannot demand an absurd buffer.
func checkSectionCount(d persistSection, n, T, m int) error {
	var want uint64
	switch d.Kind {
	case secInStart, secOutStart, secRightStart, secLeftStart:
		want = uint64(n) + 1
	case secInAdj, secOutAdj:
		want = uint64(m)
	case secGamma:
		want = uint64(n) * uint64(T)
	case secRightAdj, secLeftAdj:
		// Variable-length, but never more than one entry per vertex pair;
		// the CSR offset validation pins the exact length afterwards.
		if d.Count > uint64(n)*uint64(n) {
			return fmt.Errorf("core: corrupt index: section %d count %d exceeds n²", d.Kind, d.Count)
		}
		return nil
	default:
		return fmt.Errorf("core: unknown section kind %d", d.Kind)
	}
	if d.Count != want {
		return fmt.Errorf("core: corrupt index: section %d has %d elements, want %d", d.Kind, d.Count, want)
	}
	return nil
}

// checkV3Magic checks the first eight bytes of an index file: the magic
// and the one version that has a reader.
func checkV3Magic(b []byte) error {
	if magic := binary.LittleEndian.Uint32(b); magic != persistMagic {
		return fmt.Errorf("core: bad index magic %#x", magic)
	}
	if version := binary.LittleEndian.Uint32(b[4:]); version != persistVersion {
		return fmt.Errorf("core: unsupported index version %d", version)
	}
	return nil
}

// v3HeadLen returns the length of a v3 file's head — fixed header, section
// directory and the CRC trailer over both — from its fixed header, bounding
// the section count so nothing is sized from an implausible field.
func v3HeadLen(fixed []byte) (int, error) {
	count := binary.LittleEndian.Uint32(fixed[persistHeaderSize-4:])
	if count > 64 {
		return 0, fmt.Errorf("core: corrupt index: %d sections", count)
	}
	return persistHeaderSize + persistSectionSize*int(count) + 4, nil
}

// parseV3Container parses and verifies the head of a v3 index — data is
// the whole image or at least its head, as LoadIndex reads it off a
// stream: magic, version, header CRC, parameter match, n and m against
// g when one is given, per-section element size and counts, no section
// kind twice, ascending offsets aligned to a page of at least one word,
// and that every section ends within fileSize. It never touches section
// payloads, so it stays O(directory) no matter how large the file is.
func parseV3Container(data []byte, fileSize uint64, g *graph.Graph, p Params) (persistHeader, []persistSection, error) {
	var hdr persistHeader
	if len(data) < persistHeaderSize {
		return hdr, nil, fmt.Errorf("core: index image too small (%d bytes)", len(data))
	}
	if err := checkV3Magic(data); err != nil {
		return hdr, nil, err
	}
	headLen, err := v3HeadLen(data)
	if err != nil {
		return hdr, nil, err
	}
	if len(data) < headLen {
		return hdr, nil, fmt.Errorf("core: index image truncated inside section directory")
	}
	dirEnd := headLen - 4
	if err := binary.Read(bytes.NewReader(data), binary.LittleEndian, &hdr); err != nil {
		return hdr, nil, err
	}
	// Sections start on page boundaries, so a page of at least a word
	// keeps every section word-aligned within the image.
	if hdr.PageSize < 4 || hdr.PageSize&(hdr.PageSize-1) != 0 {
		return hdr, nil, fmt.Errorf("core: corrupt index: page size %d", hdr.PageSize)
	}
	stored := binary.LittleEndian.Uint32(data[dirEnd:])
	if crc := crc32.Checksum(data[:dirEnd], persistCRCTable); stored != crc {
		return hdr, nil, fmt.Errorf("core: header checksum mismatch (stored %#08x, computed %#08x): corrupted index file", stored, crc)
	}
	dir := make([]persistSection, hdr.SectionCount)
	if err := binary.Read(bytes.NewReader(data[persistHeaderSize:dirEnd]), binary.LittleEndian, dir); err != nil {
		return hdr, nil, err
	}
	if int(hdr.T) != p.T {
		return hdr, nil, fmt.Errorf("core: index built with T=%d, params use T=%d", hdr.T, p.T)
	}
	if math.Abs(hdr.C-p.C) > 1e-12 {
		return hdr, nil, fmt.Errorf("core: index built with c=%v, params use c=%v", hdr.C, p.C)
	}
	if g != nil && int(hdr.N) != g.N() {
		return hdr, nil, fmt.Errorf("core: index built for n=%d, graph has n=%d", hdr.N, g.N())
	}
	if g != nil && int(hdr.M) != g.M() {
		return hdr, nil, fmt.Errorf("core: index built for m=%d edges, graph has m=%d", hdr.M, g.M())
	}
	pos := uint64(headLen)
	seen := make(map[uint32]bool, len(dir))
	for _, d := range dir {
		if d.ElemSize != 4 {
			return hdr, nil, fmt.Errorf("core: section %d has element size %d", d.Kind, d.ElemSize)
		}
		if err := checkSectionCount(d, int(hdr.N), int(hdr.T), int(hdr.M)); err != nil {
			return hdr, nil, err
		}
		if seen[d.Kind] {
			return hdr, nil, fmt.Errorf("core: corrupt index: duplicate section %d", d.Kind)
		}
		seen[d.Kind] = true
		if d.Offset < pos || d.Offset%uint64(hdr.PageSize) != 0 {
			return hdr, nil, fmt.Errorf("core: corrupt index: section %d at offset %d (cursor %d)", d.Kind, d.Offset, pos)
		}
		// Compared as a quotient: 4*Count may not fit in 64 bits.
		if d.Offset > fileSize || d.Count > (fileSize-d.Offset)/4 {
			return hdr, nil, fmt.Errorf("core: corrupt index: section %d extends past end of file", d.Kind)
		}
		pos = d.Offset + 4*d.Count
	}
	return hdr, dir, nil
}
