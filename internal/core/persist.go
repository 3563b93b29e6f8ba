package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/graph"
)

// Index persistence: the preprocess results (the γ table of Algorithm 3
// and the candidate index of Algorithm 4) can be saved after Build and
// reloaded later, so the O(n) preprocess is a one-time job per graph.
//
// Version 3 (current) is a sectioned, page-aligned container designed
// for zero-copy loads: every array the snapshot serves from — the
// graph's in/out CSR, the γ table, the candidate index's four CSR
// arrays, and the walk table's alias slots — is stored as a flat
// little-endian section aligned to persistPageSize, so a loader may
// either stream-read the sections or mmap the file and serve straight
// from the mapping (see LoadIndexMmap). Layout:
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
// Stream loads verify every section against its directory CRC. Mmap
// loads verify the header and directory CRC only — checksumming the
// payload would make cold start O(file size), defeating the point —
// plus O(n) structural checks on the offset arrays; payload corruption
// is left to the filesystem, exactly like any other mmapped store.
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
	secAliasProb
	secAliasAlias
)

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

const (
	persistHeaderSize  = 48
	persistSectionSize = 32
)

// persistCRCTable is the Castagnoli polynomial table shared by save/load.
var persistCRCTable = crc32.MakeTable(crc32.Castagnoli)

// wordChunk is the staging buffer size (in 4-byte elements) used when
// encoding, decoding, and checksumming sections, so large arrays never
// need a full-size transient copy.
const wordChunk = 1024

// crcWords returns the CRC-32C of data's little-endian encoding.
func crcWords(data []uint32) uint32 {
	var buf [wordChunk * 4]byte
	crc := uint32(0)
	for len(data) > 0 {
		n := min(len(data), wordChunk)
		for i, x := range data[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], x)
		}
		crc = crc32.Update(crc, persistCRCTable, buf[:n*4])
		data = data[n:]
	}
	return crc
}

// crcFloats is crcWords for a float32 section (same bytes, IEEE-754
// little endian).
func crcFloats(data []float32) uint32 {
	var buf [wordChunk * 4]byte
	crc := uint32(0)
	for len(data) > 0 {
		n := min(len(data), wordChunk)
		for i, x := range data[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(x))
		}
		crc = crc32.Update(crc, persistCRCTable, buf[:n*4])
		data = data[n:]
	}
	return crc
}

// writeWords writes data little-endian in chunks.
func writeWords(w io.Writer, data []uint32) error {
	var buf [wordChunk * 4]byte
	for len(data) > 0 {
		n := min(len(data), wordChunk)
		for i, x := range data[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], x)
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// writeFloats is writeWords for a float32 section.
func writeFloats(w io.Writer, data []float32) error {
	var buf [wordChunk * 4]byte
	for len(data) > 0 {
		n := min(len(data), wordChunk)
		for i, x := range data[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(x))
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// readWords reads count little-endian uint32s, returning them and the
// payload CRC-32C.
func readWords(r io.Reader, count int) ([]uint32, uint32, error) {
	var buf [wordChunk * 4]byte
	out := make([]uint32, count)
	crc := uint32(0)
	for off := 0; off < count; {
		n := min(count-off, wordChunk)
		if _, err := io.ReadFull(r, buf[:n*4]); err != nil {
			return nil, 0, err
		}
		crc = crc32.Update(crc, persistCRCTable, buf[:n*4])
		for i := 0; i < n; i++ {
			out[off+i] = binary.LittleEndian.Uint32(buf[i*4:])
		}
		off += n
	}
	return out, crc, nil
}

// readFloats is readWords for a float32 section.
func readFloats(r io.Reader, count int) ([]float32, uint32, error) {
	var buf [wordChunk * 4]byte
	out := make([]float32, count)
	crc := uint32(0)
	for off := 0; off < count; {
		n := min(count-off, wordChunk)
		if _, err := io.ReadFull(r, buf[:n*4]); err != nil {
			return nil, 0, err
		}
		crc = crc32.Update(crc, persistCRCTable, buf[:n*4])
		for i := 0; i < n; i++ {
			out[off+i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		off += n
	}
	return out, crc, nil
}

// alignPage rounds off up to the next persistPageSize multiple.
func alignPage(off uint64) uint64 {
	return (off + persistPageSize - 1) &^ uint64(persistPageSize-1)
}

// persistPlan describes one section to be written.
type persistPlan struct {
	kind   uint32
	words  []uint32  // exactly one of words/floats is set
	floats []float32 // (a nil-but-present words section stays valid: count 0)
	isF    bool
}

func (p *persistPlan) count() uint64 {
	if p.isF {
		return uint64(len(p.floats))
	}
	return uint64(len(p.words))
}

// sectionPlan lists the snapshot's sections in file order.
func (e *Snapshot) sectionPlan() []persistPlan {
	inS, inA := e.g.InCSR()
	outS, outA := e.g.OutCSR()
	plan := []persistPlan{
		{kind: secInStart, words: inS},
		{kind: secInAdj, words: inA},
		{kind: secOutStart, words: outS},
		{kind: secOutAdj, words: outA},
	}
	if e.gamma != nil {
		plan = append(plan, persistPlan{kind: secGamma, floats: e.gamma, isF: true})
	}
	if e.idx != nil {
		plan = append(plan,
			persistPlan{kind: secRightStart, words: e.idx.rightStart},
			persistPlan{kind: secRightAdj, words: e.idx.rightAdj},
			persistPlan{kind: secLeftStart, words: e.idx.leftStart},
			persistPlan{kind: secLeftAdj, words: e.idx.leftAdj},
		)
	}
	if prob, alias := e.wt.Slots(); prob != nil {
		plan = append(plan,
			persistPlan{kind: secAliasProb, words: prob},
			persistPlan{kind: secAliasAlias, words: alias},
		)
	}
	return plan
}

// SaveIndex writes the snapshot — graph CSR, preprocess results, and
// walk-table slots — as a version-3 sectioned index file.
func (e *Snapshot) SaveIndex(w io.Writer) error {
	plan := e.sectionPlan()

	// Lay the sections out page-aligned after the header block and
	// checksum each payload.
	dir := make([]persistSection, len(plan))
	off := alignPage(uint64(persistHeaderSize + persistSectionSize*len(plan) + 4))
	for i := range plan {
		p := &plan[i]
		crc := uint32(0)
		if p.isF {
			crc = crcFloats(p.floats)
		} else {
			crc = crcWords(p.words)
		}
		dir[i] = persistSection{
			Kind:     p.kind,
			ElemSize: 4,
			Offset:   off,
			Count:    p.count(),
			CRC:      crc,
		}
		off = alignPage(off + 4*p.count())
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
		p := &plan[i]
		var err error
		if p.isF {
			err = writeFloats(bw, p.floats)
		} else {
			err = writeWords(bw, p.words)
		}
		if err != nil {
			return err
		}
		pos = dir[i].Offset + 4*dir[i].Count
	}
	return bw.Flush()
}

// validateIndexCSR checks one CSR offset/adjacency pair of the
// candidate index: offsets monotone from 0 to len(adj), entries < n.
// entryCheck is skipped by the mmap path (O(m) over the payload).
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
		for _, v := range adj {
			if int(v) >= n {
				return fmt.Errorf("core: corrupt index: %s entry %d out of range", name, v)
			}
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
	br := bufio.NewReader(r)
	// The head — fixed header, directory, their CRC — goes through the one
	// parser both loaders share. Its length is in the fixed header, which
	// is read in two steps so that a foreign or retired format fails on its
	// magic and version alone.
	head := make([]byte, persistHeaderSize)
	if _, err := io.ReadFull(br, head[:8]); err != nil {
		return nil, fmt.Errorf("core: reading index header: %w", err)
	}
	if err := checkV3Magic(head); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(br, head[8:]); err != nil {
		return nil, fmt.Errorf("core: reading index header: %w", err)
	}
	headLen, err := v3HeadLen(head)
	if err != nil {
		return nil, err
	}
	head = append(head, make([]byte, headLen-persistHeaderSize)...)
	if _, err := io.ReadFull(br, head[persistHeaderSize:]); err != nil {
		return nil, fmt.Errorf("core: reading section directory (truncated index file?): %w", err)
	}
	// A stream has no length to hold the sections against: a section that
	// runs past the end fails its read.
	hdr, dir, err := parseV3Container(head, math.MaxUint64, p)
	if err != nil {
		return nil, err
	}
	if int(hdr.N) != g.N() {
		return nil, fmt.Errorf("core: index built for n=%d, graph has n=%d", hdr.N, g.N())
	}
	if int(hdr.M) != g.M() {
		return nil, fmt.Errorf("core: index built for m=%d edges, graph has m=%d", hdr.M, g.M())
	}

	e := New(g, p)
	pos := uint64(headLen)
	sections := make(map[uint32][]uint32)
	for _, d := range dir {
		if _, err := io.CopyN(io.Discard, br, int64(d.Offset-pos)); err != nil {
			return nil, fmt.Errorf("core: seeking to section %d: %w", d.Kind, err)
		}
		var crc uint32
		if d.Kind == secGamma {
			gamma, c, err := readFloats(br, int(d.Count))
			if err != nil {
				return nil, fmt.Errorf("core: reading gamma section: %w", err)
			}
			crc = c
			e.gamma = gamma
		} else {
			words, c, err := readWords(br, int(d.Count))
			if err != nil {
				return nil, fmt.Errorf("core: reading section %d: %w", d.Kind, err)
			}
			crc = c
			sections[d.Kind] = words
		}
		if crc != d.CRC {
			return nil, fmt.Errorf("core: section %d checksum mismatch (stored %#08x, computed %#08x): corrupted index file", d.Kind, d.CRC, crc)
		}
		pos = d.Offset + 4*d.Count
	}

	// The embedded CSR must match the graph the index is loaded over —
	// v3's defence against loading an index for the wrong graph.
	inS, inA := g.InCSR()
	outS, outA := g.OutCSR()
	for _, ck := range []struct {
		kind uint32
		want []uint32
		name string
	}{
		{secInStart, inS, "in-offset"}, {secInAdj, inA, "in-adjacency"},
		{secOutStart, outS, "out-offset"}, {secOutAdj, outA, "out-adjacency"},
	} {
		got, ok := sections[ck.kind]
		if !ok {
			return nil, fmt.Errorf("core: corrupt index: missing %s section", ck.name)
		}
		if !wordsEqual(got, ck.want) {
			return nil, fmt.Errorf("core: index was built for a different graph (%s section differs)", ck.name)
		}
	}

	if e.gamma != nil {
		if len(e.gamma) != g.N()*p.T {
			return nil, fmt.Errorf("core: gamma section has %d entries, want %d", len(e.gamma), g.N()*p.T)
		}
		for _, v := range e.gamma {
			if v < 0 || v > 1.0001 || math.IsNaN(float64(v)) {
				return nil, fmt.Errorf("core: corrupt gamma table (entry %v)", v)
			}
		}
	}

	if rs, ok := sections[secRightStart]; ok {
		idx := &candidateIndex{
			rightStart: rs,
			rightAdj:   sections[secRightAdj],
			leftStart:  sections[secLeftStart],
			leftAdj:    sections[secLeftAdj],
		}
		if err := validateIndexCSR("right", g.N(), idx.rightStart, idx.rightAdj, true); err != nil {
			return nil, err
		}
		if err := validateIndexCSR("left", g.N(), idx.leftStart, idx.leftAdj, true); err != nil {
			return nil, err
		}
		e.idx = idx
	}

	if prob, ok := sections[secAliasProb]; ok {
		if err := e.wt.AdoptSlots(prob, sections[secAliasAlias]); err != nil {
			return nil, fmt.Errorf("core: adopting alias slots: %w", err)
		}
	}

	e.finishLoad()
	return e, nil
}

// checkSectionCount validates a directory entry's element count against
// the graph and params before any allocation is sized from it, so a
// corrupt or adversarial directory cannot demand an absurd buffer.
func checkSectionCount(d persistSection, n, T, m int) error {
	var want uint64
	switch d.Kind {
	case secInStart, secOutStart, secRightStart, secLeftStart:
		want = uint64(n) + 1
	case secInAdj, secOutAdj, secAliasProb, secAliasAlias:
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
// the whole image (typically mmapped) or at least its head, as LoadIndex
// reads it off a stream: magic, version, header CRC, parameter match,
// per-section element size and counts, no section kind twice, ascending
// page-aligned offsets, and that every section ends within fileSize. It
// never touches section payloads, so it stays O(directory) no matter how
// large the file is. Both loaders run it and nothing else on the head.
func parseV3Container(data []byte, fileSize uint64, p Params) (persistHeader, []persistSection, error) {
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
	if hdr.PageSize == 0 || hdr.PageSize&(hdr.PageSize-1) != 0 {
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
		end := d.Offset + 4*d.Count
		if end > fileSize {
			return hdr, nil, fmt.Errorf("core: corrupt index: section %d extends past end of file", d.Kind)
		}
		pos = end
	}
	return hdr, dir, nil
}

// wordsEqual compares two uint32 slices.
func wordsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}
