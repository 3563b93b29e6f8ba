// Package wire is the binary shard protocol: a sectioned, CRC-32C
// checked frame codec (in the style of persist v3's container format)
// for the router <-> shard query traffic that the JSON /shard/* bodies
// otherwise carry. Floats travel as raw IEEE-754 bit patterns
// (math.Float64bits), so a decoded fragment is bit-identical to the
// shard's — the byte-identity guarantee of the fragment-merge replay
// never rests on a formatting round trip.
//
// Frame layout (all little-endian):
//
//	off len
//	0   4   magic "SRW1"
//	4   1   version (Version)
//	5   1   message type (Msg*)
//	6   2   section count
//	8   4   payload length (sections only)
//	12  ..  sections
//	..  4   CRC-32C (Castagnoli) over everything before it
//
// Each section is {kind u8, elemSize u8, reserved u16, count u32}
// followed by count*elemSize payload bytes. Decoding validates every
// count against the bytes actually present before allocating (the
// checkSectionCount discipline of persist.go), so a hostile length
// field can never force an allocation larger than the input itself.
//
// The codec is transport-agnostic: a frame is an HTTP response body
// (Content-Type application/x-simrank-bin, negotiated via Accept on the
// /shard/* endpoints) or one message on a persistent TCP connection
// (ReadFrame), the router's fast path.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/core"
)

// ContentType is the negotiated media type for binary shard responses.
const ContentType = "application/x-simrank-bin"

// Version is the protocol version a frame header carries and a shard
// manifest advertises. Version 2 answers a similar request with a
// fragment (MsgTopKResp) where version 1 sent a ranked list; a router
// refuses a shard of any other version at probe.
const Version = 2

const (
	magic = 0x31575253 // "SRW1"

	headerLen  = 12
	trailerLen = 4
	secHdrLen  = 8

	// MaxFrameLen bounds one frame on the TCP transport, so a corrupt or
	// hostile length prefix cannot make ReadFrame allocate without bound.
	MaxFrameLen = 64 << 20
)

// Message types.
const (
	MsgError = uint8(iota)
	MsgTopKReq
	MsgTopKResp
	MsgBatchReq
	MsgBatchResp
	MsgSimilarReq
)

// Section kinds.
const (
	kindParams  = uint8(1) // uint64 array: per-message scalars
	kindQueries = uint8(2) // uint32 array: batch query vertices
	kindStats   = uint8(3) // uint64 array: statsWords per query
	kindCands   = uint8(4) // candSize-byte ShardCand rows
	kindCounts  = uint8(5) // uint32 array: per-query fragment lengths
	kindCode    = uint8(7) // bytes: stable machine-readable error code
	kindText    = uint8(8) // bytes: human-readable error message
)

const (
	// candSize is one fragment row: v u32, state u8, then the UB, rough
	// and refined estimates as raw float64 bits.
	candSize = 29
	// statsWords is the QueryStats counter count carried per query
	// (statsFields lists them).
	statsWords = 7
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrFrame wraps every decode failure, so transports can distinguish a
// protocol breakdown (close the connection) from a query error frame.
var ErrFrame = errors.New("wire: bad frame")

func frameErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
}

// TopKReq asks one shard for the fragment of query U over [Lo, Hi).
type TopKReq struct {
	U, Lo, Hi uint32
}

// BatchReq asks for fragments of many queries over one range.
type BatchReq struct {
	Lo, Hi  uint32
	Queries []uint32
}

// SimilarReq asks for the threshold query at U over [Lo, Hi).
type SimilarReq struct {
	U, Lo, Hi uint32
	Theta     float64
}

// TopKResp is one shard's fragment plus its stats for a single query: the
// answer to a TopKReq and to a SimilarReq alike, scanned at the serving
// theta or at the request's.
type TopKResp struct {
	Query     uint32
	Shard     int32
	ElapsedUS int64
	Stats     core.QueryStats
	Frag      []core.ShardCand
}

// BatchResp carries one fragment per query, request order. Frags are
// subslices of one backing array, reused across decodes into the same
// receiver.
type BatchResp struct {
	Shard     int32
	ElapsedUS int64
	Queries   []uint32
	Stats     []core.QueryStats
	Frags     [][]core.ShardCand

	cands []core.ShardCand // backing store for Frags
}

// Error is a query failure shipped as a frame: the HTTP-equivalent
// status plus the same stable code / message pair the JSON error body
// carries.
type Error struct {
	Status int
	Code   string
	Msg    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("shard answered %d (%s): %s", e.Status, e.Code, e.Msg)
}

// section is one parsed directory entry; payload aliases the frame.
type section struct {
	kind    uint8
	elem    uint8
	count   uint32
	payload []byte
}

// Frame is a parsed message: type plus the section directory. The
// section slice is reused across Parse calls, so a pooled Frame decodes
// steady-state traffic without allocating.
type Frame struct {
	Type uint8
	secs []section
}

// IsFrame reports whether b starts with the frame magic — a cheap
// content sniff for transports that may carry either a frame or JSON
// (JSON bodies never begin with "SRW1").
func IsFrame(b []byte) bool {
	return len(b) >= 4 && binary.LittleEndian.Uint32(b) == magic
}

// Parse validates data as one complete frame: magic, version, exact
// length, CRC, and every section's count against the bytes present.
// Section payloads alias data, which must stay alive while the frame is
// in use.
func (f *Frame) Parse(data []byte) error {
	f.Type = MsgError
	f.secs = f.secs[:0]
	if len(data) < headerLen+trailerLen {
		return frameErr("%d bytes, need at least %d", len(data), headerLen+trailerLen)
	}
	if got := binary.LittleEndian.Uint32(data); got != magic {
		return frameErr("magic %08x, want %08x", got, magic)
	}
	if data[4] != Version {
		return frameErr("version %d, want %d", data[4], Version)
	}
	payloadLen := int(binary.LittleEndian.Uint32(data[8:]))
	if payloadLen > MaxFrameLen {
		return frameErr("payload length %d exceeds limit %d", payloadLen, MaxFrameLen)
	}
	if payloadLen != len(data)-headerLen-trailerLen {
		return frameErr("payload length %d in a %d-byte frame", payloadLen, len(data))
	}
	body := len(data) - trailerLen
	if got, want := crc32.Checksum(data[:body], crcTable), binary.LittleEndian.Uint32(data[body:]); got != want {
		return frameErr("checksum %08x, want %08x", got, want)
	}
	nsec := int(binary.LittleEndian.Uint16(data[6:]))
	rest := data[headerLen:body]
	// Every declared section costs at least its header, so the count is
	// bounded by the bytes present before the loop trusts it.
	if int64(nsec)*secHdrLen > int64(len(rest)) {
		return frameErr("%d sections declared, %d payload bytes present", nsec, len(rest))
	}
	for i := 0; i < nsec; i++ {
		if len(rest) < secHdrLen {
			return frameErr("section %d: %d bytes left, need %d-byte header", i, len(rest), secHdrLen)
		}
		s := section{kind: rest[0], elem: rest[1], count: binary.LittleEndian.Uint32(rest[4:])}
		rest = rest[secHdrLen:]
		// The count/elemSize product is validated against the bytes that
		// are actually present before anything is sliced or allocated —
		// an oversized count field fails here, bounding every downstream
		// allocation by the input length.
		size := int64(s.count) * int64(s.elem)
		if size > int64(len(rest)) {
			return frameErr("section %d: %d x %d bytes declared, %d present", i, s.count, s.elem, len(rest))
		}
		s.payload = rest[:size]
		rest = rest[size:]
		f.secs = append(f.secs, s)
	}
	if len(rest) != 0 {
		return frameErr("%d trailing bytes after %d sections", len(rest), nsec)
	}
	f.Type = data[5]
	return nil
}

// sec returns the first section of the given kind, checking its element
// size.
func (f *Frame) sec(kind uint8, elem int) (section, error) {
	for _, s := range f.secs {
		if s.kind != kind {
			continue
		}
		if int(s.elem) != elem {
			return section{}, frameErr("section kind %d: element size %d, want %d", kind, s.elem, elem)
		}
		return s, nil
	}
	return section{}, frameErr("missing section kind %d", kind)
}

// params returns the kindParams scalars, requiring exactly n entries.
// The fixed-size return keeps steady-state decoding allocation-free
// (n <= 8 for every message type).
func (f *Frame) params(n int) ([8]uint64, error) {
	var out [8]uint64
	s, err := f.sec(kindParams, 8)
	if err != nil {
		return out, err
	}
	if int(s.count) != n {
		return out, frameErr("params: %d scalars, want %d", s.count, n)
	}
	for i := 0; i < n; i++ {
		out[i] = binary.LittleEndian.Uint64(s.payload[i*8:])
	}
	return out, nil
}

func (f *Frame) expect(t uint8) error {
	if f.Type != t {
		return frameErr("message type %d, want %d", f.Type, t)
	}
	return nil
}

// --- decoding ---

// TopKReq decodes a MsgTopKReq frame.
func (f *Frame) TopKReq() (TopKReq, error) {
	if err := f.expect(MsgTopKReq); err != nil {
		return TopKReq{}, err
	}
	p, err := f.params(3)
	if err != nil {
		return TopKReq{}, err
	}
	return TopKReq{U: uint32(p[0]), Lo: uint32(p[1]), Hi: uint32(p[2])}, nil
}

// BatchReq decodes a MsgBatchReq frame into dst, reusing its Queries
// backing array.
func (f *Frame) BatchReq(dst *BatchReq) error {
	if err := f.expect(MsgBatchReq); err != nil {
		return err
	}
	p, err := f.params(2)
	if err != nil {
		return err
	}
	qs, err := f.sec(kindQueries, 4)
	if err != nil {
		return err
	}
	dst.Lo, dst.Hi = uint32(p[0]), uint32(p[1])
	dst.Queries = appendU32s(dst.Queries[:0], qs)
	return nil
}

// SimilarReq decodes a MsgSimilarReq frame.
func (f *Frame) SimilarReq() (SimilarReq, error) {
	if err := f.expect(MsgSimilarReq); err != nil {
		return SimilarReq{}, err
	}
	p, err := f.params(4)
	if err != nil {
		return SimilarReq{}, err
	}
	return SimilarReq{U: uint32(p[0]), Lo: uint32(p[1]), Hi: uint32(p[2]), Theta: math.Float64frombits(p[3])}, nil
}

// TopKResp decodes a MsgTopKResp frame into dst, reusing its Frag
// backing array.
func (f *Frame) TopKResp(dst *TopKResp) error {
	if err := f.expect(MsgTopKResp); err != nil {
		return err
	}
	p, err := f.params(3)
	if err != nil {
		return err
	}
	st, err := f.sec(kindStats, 8)
	if err != nil {
		return err
	}
	if st.count != statsWords {
		return frameErr("stats: %d words, want %d", st.count, statsWords)
	}
	cs, err := f.sec(kindCands, candSize)
	if err != nil {
		return err
	}
	dst.Query, dst.Shard, dst.ElapsedUS = uint32(p[0]), int32(p[1]), int64(p[2])
	dst.Stats = decodeStats(st.payload)
	dst.Frag = appendCands(dst.Frag[:0], cs)
	return nil
}

// BatchResp decodes a MsgBatchResp frame into dst, reusing its Queries,
// Stats, Frags and candidate backing arrays.
func (f *Frame) BatchResp(dst *BatchResp) error {
	if err := f.expect(MsgBatchResp); err != nil {
		return err
	}
	p, err := f.params(2)
	if err != nil {
		return err
	}
	qs, err := f.sec(kindQueries, 4)
	if err != nil {
		return err
	}
	st, err := f.sec(kindStats, 8)
	if err != nil {
		return err
	}
	cn, err := f.sec(kindCounts, 4)
	if err != nil {
		return err
	}
	cs, err := f.sec(kindCands, candSize)
	if err != nil {
		return err
	}
	n := int(qs.count)
	if int(st.count) != n*statsWords {
		return frameErr("batch stats: %d words for %d queries", st.count, n)
	}
	if int(cn.count) != n {
		return frameErr("batch counts: %d entries for %d queries", cn.count, n)
	}
	var total int64
	for i := 0; i < n; i++ {
		total += int64(binary.LittleEndian.Uint32(cn.payload[i*4:]))
	}
	if total != int64(cs.count) {
		return frameErr("batch fragments: counts sum to %d, %d rows present", total, cs.count)
	}
	dst.Shard, dst.ElapsedUS = int32(p[0]), int64(p[1])
	dst.Queries = appendU32s(dst.Queries[:0], qs)
	if cap(dst.Stats) < n {
		dst.Stats = make([]core.QueryStats, n)
	}
	dst.Stats = dst.Stats[:n]
	for i := 0; i < n; i++ {
		dst.Stats[i] = decodeStats(st.payload[i*statsWords*8:])
	}
	dst.cands = appendCands(dst.cands[:0], cs)
	dst.Frags = dst.Frags[:0]
	// The counts summed to cs.count above, so the fragments exactly tile
	// dst.cands — but each slice bound is still checked locally against
	// the rows remaining, so no single oversized count can reach a slice
	// expression even if the sum check ever moves.
	rows := dst.cands
	for i := 0; i < n; i++ {
		c := int(binary.LittleEndian.Uint32(cn.payload[i*4:]))
		if c > len(rows) {
			return frameErr("batch fragments: count %d with %d rows left", c, len(rows))
		}
		dst.Frags = append(dst.Frags, rows[:c:c])
		rows = rows[c:]
	}
	return nil
}

// Err decodes a MsgError frame into an *Error.
func (f *Frame) Err() error {
	if err := f.expect(MsgError); err != nil {
		return err
	}
	p, err := f.params(1)
	if err != nil {
		return err
	}
	code, err := f.sec(kindCode, 1)
	if err != nil {
		return err
	}
	text, err := f.sec(kindText, 1)
	if err != nil {
		return err
	}
	return &Error{Status: int(p[0]), Code: string(code.payload), Msg: string(text.payload)}
}

// statsFields lists a QueryStats' counters in wire order. Both directions
// of the codec walk this one list, so a counter added to core.QueryStats
// is added to the protocol here and nowhere else.
func statsFields(st *core.QueryStats) [statsWords]*int {
	return [statsWords]*int{&st.Candidates, &st.PrunedByBound, &st.PrunedByRough, &st.Refined,
		&st.CacheHits, &st.CacheMisses, &st.CacheEvictions}
}

func decodeStats(p []byte) (st core.QueryStats) {
	for i, f := range statsFields(&st) {
		*f = int(binary.LittleEndian.Uint64(p[i*8:]))
	}
	return st
}

func appendU32s(dst []uint32, s section) []uint32 {
	for i := 0; i < int(s.count); i++ {
		dst = append(dst, binary.LittleEndian.Uint32(s.payload[i*4:]))
	}
	return dst
}

func appendCands(dst []core.ShardCand, s section) []core.ShardCand {
	for i := 0; i < int(s.count); i++ {
		row := s.payload[i*candSize:]
		dst = append(dst, core.ShardCand{
			V:     binary.LittleEndian.Uint32(row),
			State: row[4],
			UB:    math.Float64frombits(binary.LittleEndian.Uint64(row[5:])),
			Rough: math.Float64frombits(binary.LittleEndian.Uint64(row[13:])),
			Score: math.Float64frombits(binary.LittleEndian.Uint64(row[21:])),
		})
	}
	return dst
}

// --- encoding ---

// frameMark remembers where a frame started inside an append target.
type frameMark struct {
	start int
	nsec  uint16
}

func beginFrame(dst []byte, typ uint8) ([]byte, frameMark) {
	m := frameMark{start: len(dst)}
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[:], magic)
	hdr[4] = Version
	hdr[5] = typ
	return append(dst, hdr[:]...), m
}

func endFrame(dst []byte, m frameMark) []byte {
	binary.LittleEndian.PutUint16(dst[m.start+6:], m.nsec)
	binary.LittleEndian.PutUint32(dst[m.start+8:], uint32(len(dst)-m.start-headerLen))
	crc := crc32.Checksum(dst[m.start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

func appendSecHdr(dst []byte, m *frameMark, kind uint8, elem, count int) []byte {
	m.nsec++
	var hdr [secHdrLen]byte
	hdr[0] = kind
	hdr[1] = uint8(elem)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(count))
	return append(dst, hdr[:]...)
}

func appendParams(dst []byte, m *frameMark, vals ...uint64) []byte {
	dst = appendSecHdr(dst, m, kindParams, 8, len(vals))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

func appendU32Sec(dst []byte, m *frameMark, kind uint8, vals []uint32) []byte {
	dst = appendSecHdr(dst, m, kind, 4, len(vals))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

func appendStatsPayload(dst []byte, st core.QueryStats) []byte {
	for _, f := range statsFields(&st) {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(*f))
	}
	return dst
}

func appendCandsPayload(dst []byte, frag []core.ShardCand) []byte {
	for _, c := range frag {
		dst = binary.LittleEndian.AppendUint32(dst, c.V)
		dst = append(dst, c.State)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.UB))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Rough))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Score))
	}
	return dst
}

// AppendTopKReq appends a MsgTopKReq frame to dst.
func AppendTopKReq(dst []byte, r TopKReq) []byte {
	dst, m := beginFrame(dst, MsgTopKReq)
	dst = appendParams(dst, &m, uint64(r.U), uint64(r.Lo), uint64(r.Hi))
	return endFrame(dst, m)
}

// AppendBatchReq appends a MsgBatchReq frame to dst.
func AppendBatchReq(dst []byte, r *BatchReq) []byte {
	dst, m := beginFrame(dst, MsgBatchReq)
	dst = appendParams(dst, &m, uint64(r.Lo), uint64(r.Hi))
	dst = appendU32Sec(dst, &m, kindQueries, r.Queries)
	return endFrame(dst, m)
}

// AppendSimilarReq appends a MsgSimilarReq frame to dst.
func AppendSimilarReq(dst []byte, r SimilarReq) []byte {
	dst, m := beginFrame(dst, MsgSimilarReq)
	dst = appendParams(dst, &m, uint64(r.U), uint64(r.Lo), uint64(r.Hi), math.Float64bits(r.Theta))
	return endFrame(dst, m)
}

// AppendTopKResp appends a MsgTopKResp frame to dst.
func AppendTopKResp(dst []byte, r *TopKResp) []byte {
	dst, m := beginFrame(dst, MsgTopKResp)
	dst = appendParams(dst, &m, uint64(r.Query), uint64(r.Shard), uint64(r.ElapsedUS))
	dst = appendSecHdr(dst, &m, kindStats, 8, statsWords)
	dst = appendStatsPayload(dst, r.Stats)
	dst = appendSecHdr(dst, &m, kindCands, candSize, len(r.Frag))
	dst = appendCandsPayload(dst, r.Frag)
	return endFrame(dst, m)
}

// AppendBatchResp appends a MsgBatchResp frame to dst. Queries, Stats
// and Frags must be parallel (one entry per query).
func AppendBatchResp(dst []byte, r *BatchResp) []byte {
	dst, m := beginFrame(dst, MsgBatchResp)
	dst = appendParams(dst, &m, uint64(r.Shard), uint64(r.ElapsedUS))
	dst = appendU32Sec(dst, &m, kindQueries, r.Queries)
	dst = appendSecHdr(dst, &m, kindStats, 8, len(r.Stats)*statsWords)
	for _, st := range r.Stats {
		dst = appendStatsPayload(dst, st)
	}
	total := 0
	dst = appendSecHdr(dst, &m, kindCounts, 4, len(r.Frags))
	for _, f := range r.Frags {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f)))
		total += len(f)
	}
	dst = appendSecHdr(dst, &m, kindCands, candSize, total)
	for _, f := range r.Frags {
		dst = appendCandsPayload(dst, f)
	}
	return endFrame(dst, m)
}

// AppendError appends a MsgError frame to dst.
func AppendError(dst []byte, status int, code, msg string) []byte {
	dst, m := beginFrame(dst, MsgError)
	dst = appendParams(dst, &m, uint64(status))
	dst = appendSecHdr(dst, &m, kindCode, 1, len(code))
	dst = append(dst, code...)
	dst = appendSecHdr(dst, &m, kindText, 1, len(msg))
	dst = append(dst, msg...)
	return endFrame(dst, m)
}

// ReadFrame reads one complete frame from r into buf's backing array
// (growing it as needed) and returns the frame bytes, which alias
// buf.B. The length prefix is validated against MaxFrameLen before any
// allocation, and the magic/version are checked before the body is
// read, so a desynchronized stream fails fast instead of slurping
// garbage.
func ReadFrame(r io.Reader, buf *Buf) ([]byte, error) {
	b := buf.grow(headerLen)
	if _, err := io.ReadFull(r, b[:headerLen]); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(b); got != magic {
		return nil, frameErr("magic %08x, want %08x", got, magic)
	}
	if b[4] != Version {
		return nil, frameErr("version %d, want %d", b[4], Version)
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[8:]))
	if payloadLen > MaxFrameLen {
		return nil, frameErr("payload length %d exceeds limit %d", payloadLen, MaxFrameLen)
	}
	total := headerLen + payloadLen + trailerLen
	b = buf.grow(total)
	if _, err := io.ReadFull(r, b[headerLen:total]); err != nil {
		return nil, err
	}
	return b[:total], nil
}
