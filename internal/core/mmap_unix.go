//go:build unix

package core

import (
	"fmt"
	"math"
	"os"
	"syscall"
	"unsafe"
)

// LoadIndexMmap memory-maps a version-3 index file and serves the
// snapshot's arrays — graph CSR, γ table, candidate index — directly
// from the mapping, with zero payload copies. The
// graph itself is reconstructed from the embedded CSR, so cold start is
// O(header + n) regardless of file size: the header and directory CRC
// are verified, the offset arrays get their structural scan, and the
// page cache faults the rest in on demand. Off unix the same call reads
// the file and verifies it like LoadIndex's input (mmap_stub.go).
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
	e, err := assemble(nil, p, data, view[uint32](data), view[float32](data))
	if err != nil {
		syscall.Munmap(data)
		return nil, nil, err
	}
	return e, func() error { return syscall.Munmap(data) }, nil
}

// view reinterprets the mapping as little-endian elements in place. The
// mapping base is page-aligned and every section starts on a page of at
// least a word (parseV3Container), so each section is an aligned
// subslice of the view.
func view[T uint32 | float32](data []byte) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(data))), len(data)/4)
}
