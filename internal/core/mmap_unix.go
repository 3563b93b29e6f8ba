//go:build unix

package core

import (
	"fmt"
	"math"
	"os"
	"syscall"
	"unsafe"

	"repro/internal/graph"
)

// LoadIndexMmap memory-maps a version-3 index file and serves the
// snapshot's arrays — graph CSR, γ table, candidate index, alias
// slots — directly from the mapping, with zero payload copies. The
// graph itself is reconstructed from the embedded CSR, so cold start is
// O(header + n) regardless of file size: the header and directory CRC
// are verified, the offset arrays get their structural scan, and the
// page cache faults the rest in on demand.
//
// The returned closer unmaps the file; the engine and every query
// served from it must be quiesced first. On an unmodified snapshot the
// mapping stays clean, so memory pressure evicts pages instead of
// swapping them.
func LoadIndexMmap(path string, p Params) (*Engine, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if st.Size() < persistHeaderSize || st.Size() > math.MaxInt {
		return nil, nil, fmt.Errorf("core: index file %s has implausible size %d", path, st.Size())
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("core: mmap %s: %w", path, err)
	}
	e, err := engineFromMapped(data, p)
	if err != nil {
		syscall.Munmap(data)
		return nil, nil, err
	}
	return e, func() error { return syscall.Munmap(data) }, nil
}

// u32view reinterprets count little-endian uint32s at data[off:] in
// place. Offsets are page-aligned (parseV3Container enforces it) and
// the mapping base is page-aligned, so the cast is always aligned.
func u32view(data []byte, off, count uint64) []uint32 {
	if count == 0 {
		return []uint32{}
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&data[off])), count)
}

// f32view is u32view for a float32 section.
func f32view(data []byte, off, count uint64) []float32 {
	if count == 0 {
		return []float32{}
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&data[off])), count)
}

// engineFromMapped assembles an engine over a verified v3 image.
func engineFromMapped(data []byte, p Params) (*Engine, error) {
	p = p.normalized() // compare stored params against what New would use
	hdr, dir, err := parseV3Container(data, uint64(len(data)), p)
	if err != nil {
		return nil, err
	}
	byKind := make(map[uint32]persistSection, len(dir))
	for _, d := range dir {
		byKind[d.Kind] = d
	}
	words := func(kind uint32) ([]uint32, bool) {
		d, ok := byKind[kind]
		if !ok {
			return nil, false
		}
		return u32view(data, d.Offset, d.Count), true
	}
	need := func(kind uint32, name string) ([]uint32, error) {
		w, ok := words(kind)
		if !ok {
			return nil, fmt.Errorf("core: corrupt index: missing %s section", name)
		}
		return w, nil
	}

	inS, err := need(secInStart, "in-offset")
	if err != nil {
		return nil, err
	}
	inA, err := need(secInAdj, "in-adjacency")
	if err != nil {
		return nil, err
	}
	outS, err := need(secOutStart, "out-offset")
	if err != nil {
		return nil, err
	}
	outA, err := need(secOutAdj, "out-adjacency")
	if err != nil {
		return nil, err
	}
	g, err := graph.FromCSR(int(hdr.N), inS, inA, outS, outA)
	if err != nil {
		return nil, err
	}

	e := New(g, p)
	if d, ok := byKind[secGamma]; ok {
		e.gamma = f32view(data, d.Offset, d.Count)
	}
	if rs, ok := words(secRightStart); ok {
		idx := &candidateIndex{rightStart: rs}
		if idx.rightAdj, err = need(secRightAdj, "right-adjacency"); err != nil {
			return nil, err
		}
		if idx.leftStart, err = need(secLeftStart, "left-offset"); err != nil {
			return nil, err
		}
		if idx.leftAdj, err = need(secLeftAdj, "left-adjacency"); err != nil {
			return nil, err
		}
		// Structural O(n) checks only: entry range checks would fault the
		// whole payload in, defeating the lazy load.
		if err := validateIndexCSR("right", g.N(), idx.rightStart, idx.rightAdj, false); err != nil {
			return nil, err
		}
		if err := validateIndexCSR("left", g.N(), idx.leftStart, idx.leftAdj, false); err != nil {
			return nil, err
		}
		e.idx = idx
	}
	if prob, ok := words(secAliasProb); ok {
		alias, err := need(secAliasAlias, "alias-redirect")
		if err != nil {
			return nil, err
		}
		if err := e.wt.AdoptSlots(prob, alias); err != nil {
			return nil, fmt.Errorf("core: adopting alias slots: %w", err)
		}
	}
	e.finishLoad()
	return e, nil
}
