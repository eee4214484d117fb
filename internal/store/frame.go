package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
)

// Wire framing. Every message on a store connection is one frame:
//
//	length  uint32 BE   bytes after this field: 1 (op) + 4 (crc) + 4 (id) + body
//	op      byte        frame type: a request's op, a response's kind (see
//	                    the frame* constants)
//	crc32   uint32 BE   IEEE CRC over the op byte, the request id and the body
//	id      uint32 BE   request id: the client's, echoed by the answer
//	body    length-9 bytes
//
// The CRC covers the op byte and the id, so a flipped opcode or id is
// caught like any other corruption. A client numbers its requests from 1
// and treats an answer carrying another id as a corrupt frame; id 0 is
// never a request's, and marks the server's connection-level errors —
// busy at accept, a request that failed its CRC — which answer no
// request in particular. Block bodies reuse the core CodedBlock wire
// format (version byte preserved), so the store never invents a second
// serialization of the same data.
const (
	frameOverhead = 1 + 4 + 4         // op + crc + id, covered by the length field
	frameHeader   = 4 + frameOverhead // length + op + crc + id
	frameIDOffset = frameHeader - 4   // where the id sits in a frame

	// DefaultMaxFrame bounds a single frame body (16 MiB) — on the
	// client, on the server and for a disk record alike, so whatever one
	// side accepts the others can carry. Large enough for one object's
	// blocks in the experiments, small enough that a corrupted length
	// field cannot make a peer allocate without bound.
	DefaultMaxFrame = 16 << 20
)

// Frame types, the op byte. Requests are uppercase-ish mnemonics,
// responses follow shell conventions ('+' ok, '!' error). Held for the
// ops of the one wire revision still to come, and unassigned until then:
// 'R' recombine, 'O' object manifest. Retired, and never reassigned: 'P',
// the single-block put, which a server answers like any unknown op.
const (
	frameMultiPut = 'M' // body: the frameBlocks layout; answered by framePutAcks
	frameGet      = 'G' // body: uint16 max level (0xFFFF = all) + uint64 object ID
	frameStat     = 'S' // body: empty
	framePing     = 'i' // body: empty
	frameShutdown = 'Q' // body: empty; server acks, drains, and exits
	frameSegments = 'E' // body: empty; lists the disk engine's segments
	frameDelete   = 'D' // body: uint64 object ID; removes every block of the object

	frameOK      = '+' // body: empty
	frameErr     = '!' // body: code byte + UTF-8 message
	frameBlocks  = 'B' // body: uint32 n, then n x (uint32 len, block bytes)
	frameStats   = 's' // body: the inventory layout of encodeStats
	frameSegList = 'e' // body: uint16 n, n x segListEntry bytes (see encodeSegmentList)
	frameDeleted = 'd' // body: uint32 removed block count
	framePutAcks = 'm' // body: uint32 n, then n status bytes (ackStored or an error code)
)

// Error codes carried in frameErr bodies. The code tells the client
// whether retrying the same request can help.
const (
	errCodeCorrupt     = 1 // transport corruption: retry on a fresh connection
	errCodeBad         = 2 // semantic rejection: do not retry
	errCodeUnavailable = 3 // server draining or I/O trouble: try another replica
	errCodeFull        = 4 // storage engine at capacity: fail over, do not retry here

	// ackStored is a framePutAcks status: the block is stored, or was
	// already. Every other status is one of the error codes above.
	ackStored = 0
)

// frameBufPool recycles frame build buffers across writeFrame calls —
// a put-heavy client otherwise allocates one block-sized buffer per
// request. Buffers above maxPooledBuf (a full get response can be
// 16 MiB) are dropped instead of pinned in the pool.
var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

const maxPooledBuf = 1 << 20

// beginFrame starts a frame of the given type and request id in buf: the
// header with its length and CRC fields still zero. The caller appends
// the body and calls sealFrame, so a body assembled from parts (a block
// list) is built in place instead of in a buffer of its own.
func beginFrame(buf []byte, typ byte, id uint32) []byte {
	buf = append(buf, 0, 0, 0, 0, typ, 0, 0, 0, 0)
	return binary.BigEndian.AppendUint32(buf, id)
}

// sealFrame patches the length and CRC of the frame that starts at
// buf[0] and ends at len(buf).
func sealFrame(buf []byte) {
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	crc := crc32.Update(crc32.ChecksumIEEE(buf[4:5]), crc32.IEEETable, buf[frameIDOffset:])
	binary.BigEndian.PutUint32(buf[5:], crc)
}

// sendFrame writes a sealed frame with a single Write call, so a
// fault-injecting transport that corrupts per-write corrupts per-frame,
// and hands the build buffer back to frameBufPool — safe because Write
// does not retain its argument.
func sendFrame(w io.Writer, bp *[]byte, buf []byte) error {
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf
		frameBufPool.Put(bp)
	}
	return err
}

// writeFrame serializes one frame into a pooled buffer and writes it.
func writeFrame(w io.Writer, typ byte, id uint32, body []byte) error {
	bp := frameBufPool.Get().(*[]byte)
	buf := append(beginFrame((*bp)[:0], typ, id), body...)
	sealFrame(buf)
	return sendFrame(w, bp, buf)
}

// blockListSize is the body size of a frameBlocks list of blocks.
func blockListSize(blocks [][]byte) int {
	size := 4
	for _, b := range blocks {
		size += 4 + len(b)
	}
	return size
}

// appendBlockList appends the frameBlocks layout of blocks to buf.
func appendBlockList(buf []byte, blocks [][]byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(blocks)))
	for _, b := range blocks {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
		buf = append(buf, b...)
	}
	return buf
}

// writeBlockList writes a typ frame whose body is the frameBlocks layout
// of blocks — a get's answer (frameBlocks) or a put's request
// (frameMultiPut) — built straight from the blocks' wire slices into the
// pooled buffer, so each block is copied once, into the bytes the socket
// sees. A body that would exceed DefaultMaxFrame is rejected with
// ErrBadRequest before anything is built or written: no peer could read
// it, so sending it only burns retries. (The bound also keeps the uint32
// count and length fields from truncating.)
func writeBlockList(w io.Writer, typ byte, id uint32, blocks [][]byte) error {
	body := blockListSize(blocks)
	if body > DefaultMaxFrame {
		return fmt.Errorf("%w: %d blocks (%d bytes) exceed the frame limit %d bytes",
			ErrBadRequest, len(blocks), body, DefaultMaxFrame)
	}
	bp := frameBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	if cap(buf) < frameHeader+body {
		buf = make([]byte, 0, frameHeader+body)
	}
	buf = appendBlockList(beginFrame(buf, typ, id), blocks)
	sealFrame(buf)
	return sendFrame(w, bp, buf)
}

// readFrame reads and validates one frame, allocating a fresh body, and
// returns its type, request id and body. Length-field violations and CRC
// mismatches wrap ErrCorruptFrame; after either, the stream is out of
// sync and the connection must be closed.
func readFrame(r io.Reader, maxFrame int) (byte, uint32, []byte, error) {
	typ, id, body, _, err := readFrameBuf(r, maxFrame, nil)
	return typ, id, body, err
}

// noFrameError marks an exchange that failed before the first byte of a
// frame arrived: the peer had hung up, or the request never left. What a
// client may conclude from that depends on the connection's history (see
// Client.attempt); the cause stays reachable through Unwrap.
type noFrameError struct{ error }

func (e noFrameError) Unwrap() error { return e.error }

// readFrameBuf is readFrame with caller-owned buffer reuse: the frame
// is read into scratch (grown as needed) and body aliases it, so a
// connection loop passing the returned buffer back in reads every
// request with zero steady-state allocations. The body is only valid
// until the next call with the same buffer; callers that retain block
// bytes (the put path) must copy, which they already do to own them.
func readFrameBuf(r io.Reader, maxFrame int, scratch []byte) (byte, uint32, []byte, []byte, error) {
	var lenBuf [4]byte
	if n, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if n == 0 {
			err = noFrameError{err}
		}
		return 0, 0, nil, scratch, err
	}
	n := int(binary.BigEndian.Uint32(lenBuf[:]))
	if n < frameOverhead {
		return 0, 0, nil, scratch, fmt.Errorf("%w: frame length %d below header", ErrCorruptFrame, n)
	}
	if n > maxFrame+frameOverhead {
		return 0, 0, nil, scratch, fmt.Errorf("%w: frame length %d exceeds limit %d", ErrCorruptFrame, n, maxFrame)
	}
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	rest := scratch[:n]
	if _, err := io.ReadFull(r, rest); err != nil {
		return 0, 0, nil, scratch, err
	}
	typ := rest[0]
	want := binary.BigEndian.Uint32(rest[1:5])
	crc := crc32.Update(crc32.ChecksumIEEE(rest[:1]), crc32.IEEETable, rest[5:])
	if crc != want {
		return 0, 0, nil, scratch, fmt.Errorf("%w: crc mismatch on %q frame", ErrCorruptFrame, typ)
	}
	return typ, binary.BigEndian.Uint32(rest[5:9]), rest[9:], scratch, nil
}

// writeErrFrame best-effort sends an error response to request id (0
// for a connection-level error); failures are ignored because the
// connection is usually about to close anyway.
func writeErrFrame(w io.Writer, id uint32, code byte, msg string) {
	body := make([]byte, 0, 1+len(msg))
	body = append(body, code)
	body = append(body, msg...)
	_ = writeFrame(w, frameErr, id, body)
}

// decodeErrFrame maps a frameErr body to a typed error.
func decodeErrFrame(body []byte) error {
	if len(body) == 0 {
		return fmt.Errorf("%w: empty error frame", ErrBadRequest)
	}
	code, msg := body[0], string(body[1:])
	switch code {
	case errCodeCorrupt:
		return fmt.Errorf("%w: server: %s", ErrCorruptFrame, msg)
	case errCodeUnavailable:
		return fmt.Errorf("%w: server: %s", ErrStoreUnavailable, msg)
	case errCodeFull:
		return fmt.Errorf("%w: server: %s", ErrStoreFull, msg)
	default:
		return fmt.Errorf("%w: server: %s", ErrBadRequest, msg)
	}
}

// minBlockEntry is the smallest possible block-list entry: a 4-byte
// length prefix plus the 13-byte header of an empty v1 block. Used to
// bound the claimed entry count of an incoming list before any
// allocation (the result array is sized from the claim, so the bound is
// what keeps a hostile count from costing more than a few times the
// frame it arrived in).
const minBlockEntry = 4 + 13

// splitBlockList cuts a frameBlocks body into its entries' wire bytes,
// each a capacity-clipped sub-slice of body, returned in dst's storage
// when it is large enough; no block is parsed. body
// must therefore be the caller's to give away — readFrame allocates a
// fresh one per response; a reused scratch buffer (the server's request
// loop) is not. The body already passed the frame CRC, so a malformed
// list means a peer bug rather than line noise; it is still reported as
// corruption so clients retry elsewhere.
func splitBlockList(dst [][]byte, body []byte) ([][]byte, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: block list truncated", ErrCorruptFrame)
	}
	// The claimed count comes straight off the wire (up to 2^32-1); bound
	// it by what the body could possibly hold BEFORE sizing the result
	// slice, so a corrupt or malicious peer cannot force a multi-GB
	// allocation out of a tiny frame.
	n := int(binary.BigEndian.Uint32(body))
	if n > len(body)/minBlockEntry {
		return nil, fmt.Errorf("%w: block list claims %d entries, body holds at most %d",
			ErrCorruptFrame, n, len(body)/minBlockEntry)
	}
	off := 4
	out := slices.Grow(dst[:0], n)[:n]
	for i := range out {
		if len(body)-off < 4 {
			return nil, fmt.Errorf("%w: block list truncated at entry %d", ErrCorruptFrame, i)
		}
		l := int(binary.BigEndian.Uint32(body[off:]))
		off += 4
		if len(body)-off < l {
			return nil, fmt.Errorf("%w: block %d length %d overruns body", ErrCorruptFrame, i, l)
		}
		out[i] = body[off : off+l : off+l]
		off += l
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes after block list", ErrCorruptFrame, len(body)-off)
	}
	return out, nil
}

// parseBlocks unmarshals wire entries into blocks that alias them
// (core.UnmarshalBinaryAlias), all held in one array: a get costs the
// response body, this array and what seed and sparse blocks must build,
// not two allocations and two copies per block. One bad entry fails the
// whole list with ErrCorruptFrame: an answer is all or nothing.
func parseBlocks(wires [][]byte) ([]core.CodedBlock, error) {
	out := make([]core.CodedBlock, len(wires))
	for i, w := range wires {
		if err := out[i].UnmarshalBinaryAlias(w); err != nil {
			return nil, fmt.Errorf("%w: block %d: %v", ErrCorruptFrame, i, err)
		}
	}
	return out, nil
}

// appendPutAcks appends to buf a framePutAcks body answering a put of n
// blocks: the count, then one status per block, in request order, each
// ackStored.
func appendPutAcks(buf []byte, n int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	return append(buf, make([]byte, n)...)
}

// decodePutAcks parses a framePutAcks body answering a put of n blocks.
// The count must be n and the body exactly that long; a status that is
// neither ackStored nor an error code is corruption.
func decodePutAcks(body []byte, n int) ([]byte, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: put acks truncated", ErrCorruptFrame)
	}
	if got := binary.BigEndian.Uint32(body); uint64(got) != uint64(n) || len(body)-4 != n {
		return nil, fmt.Errorf("%w: put acks claim %d statuses in %d bytes, want %d",
			ErrCorruptFrame, got, len(body)-4, n)
	}
	status := body[4:]
	for i, st := range status {
		if st > errCodeFull {
			return nil, fmt.Errorf("%w: put ack %d has status %d", ErrCorruptFrame, i, st)
		}
	}
	return status, nil
}

// getBodyLen is the frameGet request body: a uint16 max level (0xFFFF =
// all levels) and the uint64 object ID. A read names one object: the
// all-objects wildcard is rejected, so no answer can mix two objects'
// blocks into one decoder.
const getBodyLen = 2 + 8

// encodeGetBody builds a get request body.
func encodeGetBody(obj core.ObjectID, maxLevel int) []byte {
	wire := uint16(0xFFFF) // wire sentinel: all levels
	if maxLevel >= 0 {
		wire = uint16(maxLevel)
	}
	body := binary.BigEndian.AppendUint16(make([]byte, 0, getBodyLen), wire)
	return binary.BigEndian.AppendUint64(body, uint64(obj))
}

// decodeGetBody parses a get request, returning the object and maxLevel
// (-1 = all levels), and rejects the all-objects wildcard.
func decodeGetBody(body []byte) (core.ObjectID, int, error) {
	if len(body) != getBodyLen {
		return 0, 0, fmt.Errorf("%w: get body %d bytes, want %d", ErrBadRequest, len(body), getBodyLen)
	}
	maxLevel := int(binary.BigEndian.Uint16(body))
	if maxLevel == 0xFFFF {
		maxLevel = -1
	}
	obj := core.ObjectID(binary.BigEndian.Uint64(body[2:]))
	if obj == core.AllObjects {
		return 0, 0, fmt.Errorf("%w: get needs a concrete object", ErrBadRequest)
	}
	return obj, maxLevel, nil
}

// deleteBodyLen is the frameDelete request body: one uint64 object ID.
// The wildcard is rejected so a single frame can never wipe a node.
const deleteBodyLen = 8

// encodeDeleteBody builds a delete request body for one concrete object.
func encodeDeleteBody(obj core.ObjectID) []byte {
	return binary.BigEndian.AppendUint64(make([]byte, 0, deleteBodyLen), uint64(obj))
}

// decodeDeleteBody parses a delete request, rejecting the all-objects
// wildcard: reclamation is per object by design.
func decodeDeleteBody(body []byte) (core.ObjectID, error) {
	if len(body) != deleteBodyLen {
		return 0, fmt.Errorf("%w: delete body %d bytes, want %d", ErrBadRequest, len(body), deleteBodyLen)
	}
	obj := core.ObjectID(binary.BigEndian.Uint64(body))
	if obj == core.AllObjects {
		return 0, fmt.Errorf("%w: delete needs a concrete object", ErrBadRequest)
	}
	return obj, nil
}

// encodeDeleted builds a frameDeleted response body.
func encodeDeleted(removed int) []byte {
	n := uint32(math.MaxUint32)
	if removed >= 0 && uint64(removed) <= math.MaxUint32 {
		n = uint32(removed)
	}
	return binary.BigEndian.AppendUint32(make([]byte, 0, 4), n)
}

// decodeDeleted parses a frameDeleted response body.
func decodeDeleted(body []byte) (int, error) {
	if len(body) != 4 {
		return 0, fmt.Errorf("%w: deleted body %d bytes, want 4", ErrCorruptFrame, len(body))
	}
	return int(binary.BigEndian.Uint32(body)), nil
}

// SegmentInfo describes one on-disk segment of a disk-backed engine —
// the unit of group commit, replay, and retention. The active segment is
// the one still receiving writes; all others are sealed.
type SegmentInfo struct {
	// ID is the segment's monotonically increasing sequence number
	// (the NNNNNNNN in seg-NNNNNNNN.plcseg).
	ID uint64
	// Records is how many block records the segment holds.
	Records int
	// Bytes is the segment file size, record headers included.
	Bytes int64
	// Created is when the segment was opened for writing; age follows as
	// now - Created.
	Created time.Time
	// Active marks the segment currently receiving writes.
	Active bool
}

// SegmentLister is the optional BlockStore facet behind the segments
// inspection op. The in-memory engine has no segments and deliberately
// does not implement it, so the server can answer "no disk engine"
// instead of inventing an empty listing.
type SegmentLister interface {
	SegmentInfos() []SegmentInfo
}

// segListEntry is the wire size of one segment entry:
// uint64 id + uint32 records + uint64 bytes + int64 created unix-nanos +
// 1 active flag.
const segListEntry = 8 + 4 + 8 + 8 + 1

// encodeSegmentList packs segment metadata into a frameSegList body:
// uint16 n, then n fixed-size entries.
func encodeSegmentList(segs []SegmentInfo) ([]byte, error) {
	if len(segs) > 0xFFFF {
		return nil, fmt.Errorf("%w: %d segments do not fit the wire count field", ErrBadRequest, len(segs))
	}
	body := make([]byte, 0, 2+segListEntry*len(segs))
	body = binary.BigEndian.AppendUint16(body, uint16(len(segs)))
	for _, sg := range segs {
		if sg.Records < 0 || uint64(sg.Records) > 0xFFFFFFFF {
			return nil, fmt.Errorf("%w: segment %d record count %d does not fit the wire field",
				ErrBadRequest, sg.ID, sg.Records)
		}
		body = binary.BigEndian.AppendUint64(body, sg.ID)
		body = binary.BigEndian.AppendUint32(body, uint32(sg.Records))
		body = binary.BigEndian.AppendUint64(body, uint64(sg.Bytes))
		body = binary.BigEndian.AppendUint64(body, uint64(sg.Created.UnixNano()))
		flag := byte(0)
		if sg.Active {
			flag = 1
		}
		body = append(body, flag)
	}
	return body, nil
}

// decodeSegmentList unpacks a frameSegList body. Entries are fixed-size,
// so the claimed count is checked against the exact body length before
// any allocation; an active flag other than 0 or 1 is corruption.
func decodeSegmentList(body []byte) ([]SegmentInfo, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("%w: segment list truncated", ErrCorruptFrame)
	}
	n := int(binary.BigEndian.Uint16(body))
	if len(body) != 2+segListEntry*n {
		return nil, fmt.Errorf("%w: segment list claims %d entries in %d bytes, want %d",
			ErrCorruptFrame, n, len(body), 2+segListEntry*n)
	}
	out := make([]SegmentInfo, 0, n)
	off := 2
	for i := 0; i < n; i++ {
		if body[off+28] > 1 {
			return nil, fmt.Errorf("%w: segment %d active flag %d", ErrCorruptFrame, i, body[off+28])
		}
		out = append(out, SegmentInfo{
			ID:      binary.BigEndian.Uint64(body[off:]),
			Records: int(binary.BigEndian.Uint32(body[off+8:])),
			Bytes:   int64(binary.BigEndian.Uint64(body[off+12:])),
			Created: time.Unix(0, int64(binary.BigEndian.Uint64(body[off+20:]))),
			Active:  body[off+28] == 1,
		})
		off += segListEntry
	}
	return out, nil
}

// Stats is a server inventory snapshot.
type Stats struct {
	// Blocks is the total number of stored coded blocks.
	Blocks int
	// Bytes is the total wire bytes of stored blocks (coefficients and
	// payloads included) — the repair daemon's bandwidth accounting unit.
	Bytes int64
	// PerLevel counts blocks and bytes per priority level, ascending by
	// level, aggregated over every object.
	PerLevel []LevelCount
	// PerObject breaks the inventory down by object, ascending by ID.
	PerObject []ObjectStats
}

// LevelCount is one per-level entry of a Stats snapshot.
type LevelCount struct {
	Level int
	Count int
	Bytes int64
}

// ObjectStats is one object's slice of a Stats snapshot.
type ObjectStats struct {
	Object core.ObjectID
	// Blocks and Bytes total the object's PerLevel entries.
	Blocks int
	Bytes  int64
	// PerLevel counts the object's blocks per priority level, ascending.
	PerLevel []LevelCount
}

// The stat body has one layout:
//
//	uint32 blocks | uint16 0xFFFF | byte 3 | uint64 bytes | uint16 n |
//	n x (uint16 level, uint32 count, uint64 bytes) |
//	uint16 nObj | nObj x (uint64 object | uint16 m | m x (level entry))
//
// The marker and version byte sit where older, per-object-less layouts
// put their level count, so a body in one of those is rejected as
// corrupt rather than misread. Levels ascend strictly within each list
// and objects by ID; the decoder rejects anything else, so every body it
// accepts re-encodes byte for byte.
const (
	statsMarker  = 0xFFFF
	statsVersion = 3
	statsHeader  = 4 + 2 + 1 + 8 // up to the aggregate level list
	statsEntry   = 2 + 4 + 8
	statsObjHead = 8 + 2
)

// appendLevelCounts bounds-checks and appends one (level, count, bytes)
// entry list; shared by the aggregate and per-object stat sections.
func appendLevelCounts(body []byte, perLevel []LevelCount) ([]byte, error) {
	if len(perLevel) > 0xFFFF {
		return nil, fmt.Errorf("%w: %d levels do not fit the stat frame", ErrBadRequest, len(perLevel))
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(perLevel)))
	for _, lc := range perLevel {
		if lc.Level < 0 || lc.Level > 0xFFFF {
			return nil, fmt.Errorf("%w: level %d does not fit the stat frame", ErrBadRequest, lc.Level)
		}
		if lc.Count < 0 || uint64(lc.Count) > 0xFFFFFFFF {
			return nil, fmt.Errorf("%w: level %d count %d does not fit the stat frame", ErrBadRequest, lc.Level, lc.Count)
		}
		body = binary.BigEndian.AppendUint16(body, uint16(lc.Level))
		body = binary.BigEndian.AppendUint32(body, uint32(lc.Count))
		body = binary.BigEndian.AppendUint64(body, uint64(lc.Bytes))
	}
	return body, nil
}

func encodeStats(st Stats) ([]byte, error) {
	// Every field that narrows on the wire is bounds-checked: a silent
	// uint16/uint32 truncation would hand clients a plausible-looking but
	// wrong inventory, which the repair daemon would then act on.
	if st.Blocks < 0 || uint64(st.Blocks) > 0xFFFFFFFF {
		return nil, fmt.Errorf("%w: block count %d does not fit the stat frame", ErrBadRequest, st.Blocks)
	}
	if len(st.PerObject) > 0xFFFF {
		return nil, fmt.Errorf("%w: %d objects do not fit the stat frame", ErrBadRequest, len(st.PerObject))
	}
	body := make([]byte, 0, statsHeader+2+statsEntry*len(st.PerLevel)+2)
	body = binary.BigEndian.AppendUint32(body, uint32(st.Blocks))
	body = binary.BigEndian.AppendUint16(body, statsMarker)
	body = append(body, statsVersion)
	body = binary.BigEndian.AppendUint64(body, uint64(st.Bytes))
	body, err := appendLevelCounts(body, st.PerLevel)
	if err != nil {
		return nil, err
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(st.PerObject)))
	for _, os := range st.PerObject {
		body = binary.BigEndian.AppendUint64(body, uint64(os.Object))
		if body, err = appendLevelCounts(body, os.PerLevel); err != nil {
			return nil, fmt.Errorf("object %s: %w", os.Object, err)
		}
	}
	return body, nil
}

// readLevelCounts parses the uint16-counted entry list at body[off:],
// returning it and the offset past it. The claimed count is bounded by
// the bytes present before anything is read, splitBlockList-style.
func readLevelCounts(body []byte, off int) ([]LevelCount, int, error) {
	if len(body)-off < 2 {
		return nil, 0, fmt.Errorf("%w: stats level list truncated", ErrCorruptFrame)
	}
	n := int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	if n > (len(body)-off)/statsEntry {
		return nil, 0, fmt.Errorf("%w: stats claim %d levels in %d bytes", ErrCorruptFrame, n, len(body)-off)
	}
	var out []LevelCount
	for i := 0; i < n; i++ {
		lc := LevelCount{
			Level: int(binary.BigEndian.Uint16(body[off:])),
			Count: int(binary.BigEndian.Uint32(body[off+2:])),
			Bytes: int64(binary.BigEndian.Uint64(body[off+6:])),
		}
		if i > 0 && lc.Level <= out[i-1].Level {
			return nil, 0, fmt.Errorf("%w: stats level %d after level %d", ErrCorruptFrame, lc.Level, out[i-1].Level)
		}
		out = append(out, lc)
		off += statsEntry
	}
	return out, off, nil
}

func decodeStats(body []byte) (Stats, error) {
	if len(body) < statsHeader || binary.BigEndian.Uint16(body[4:]) != statsMarker || body[6] != statsVersion {
		return Stats{}, fmt.Errorf("%w: not a v%d stats body", ErrCorruptFrame, statsVersion)
	}
	st := Stats{
		Blocks: int(binary.BigEndian.Uint32(body)),
		Bytes:  int64(binary.BigEndian.Uint64(body[7:])),
	}
	perLevel, off, err := readLevelCounts(body, statsHeader)
	if err != nil {
		return Stats{}, err
	}
	st.PerLevel = perLevel
	if len(body)-off < 2 {
		return Stats{}, fmt.Errorf("%w: stats object section truncated", ErrCorruptFrame)
	}
	nObj := int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	if nObj > (len(body)-off)/statsObjHead {
		return Stats{}, fmt.Errorf("%w: stats claim %d objects in %d bytes", ErrCorruptFrame, nObj, len(body)-off)
	}
	for i := 0; i < nObj; i++ {
		if len(body)-off < statsObjHead {
			return Stats{}, fmt.Errorf("%w: stats object %d truncated", ErrCorruptFrame, i)
		}
		os := ObjectStats{Object: core.ObjectID(binary.BigEndian.Uint64(body[off:]))}
		if i > 0 && os.Object <= st.PerObject[i-1].Object {
			return Stats{}, fmt.Errorf("%w: stats object %s after %s", ErrCorruptFrame, os.Object, st.PerObject[i-1].Object)
		}
		if os.PerLevel, off, err = readLevelCounts(body, off+8); err != nil {
			return Stats{}, err
		}
		for _, lc := range os.PerLevel {
			os.Blocks += lc.Count
			os.Bytes += lc.Bytes
		}
		st.PerObject = append(st.PerObject, os)
	}
	if off != len(body) {
		return Stats{}, fmt.Errorf("%w: %d trailing bytes after stats body", ErrCorruptFrame, len(body)-off)
	}
	return st, nil
}
