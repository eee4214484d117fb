package diskstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// Segment file layout. A segment is an append-only log:
//
//	header  16 bytes   magic "PLCSEG1\n" + uint64 BE creation unix-nanos
//	records repeated   uint32 BE wire length | uint32 BE IEEE CRC(wire) |
//	                   wire bytes (one core.CodedBlock wire frame, any
//	                   version v1–v4, exactly as received on the socket)
//
// The CRC guards each record independently, so recovery can replay a
// segment record by record and stop at the first torn one — a crash
// mid-write leaves at most one partial record, always at the tail.
// Record bodies reuse the block wire encoding, so a segment is
// replayable with core.CodedBlock.UnmarshalBinary and nothing else.
const (
	segMagic     = "PLCSEG1\n"
	segHeaderLen = 8 + 8
	recHeaderLen = 4 + 4

	segSuffix = ".plcseg"
)

// segName formats a segment file name; ids are zero-padded so
// lexicographic order is replay order.
func segName(id uint64) string {
	return fmt.Sprintf("seg-%08d%s", id, segSuffix)
}

// rec is one committed block record in the in-memory index.
type rec struct {
	off   int64         // record start (the length field), not the wire bytes
	n     int32         // wire length
	obj   core.ObjectID // object namespace, parsed from the wire frame
	level uint16        // priority level, parsed from the wire frame
	hash  uint64        // dedup hash of the wire bytes
	dead  bool          // object deleted after this record landed; skip on read
}

// segment is one on-disk log file plus its index slice. recs is
// guarded by the Store's mu; the mapping by fmu, so retention and Close
// can unmap a segment out from under a concurrent Get without racing
// it: reads copy under fmu's read lock, unmapping takes its write lock.
type segment struct {
	id        uint64
	path      string
	createdAt time.Time
	size      int64
	recs      []rec // every physical block record, dead ones included —
	// positions are load-bearing (blockRef.idx), so deletes mark
	// rather than remove
	live  int             // recs not marked dead
	tombs []core.ObjectID // objects tombstoned in this segment, log order

	fmu sync.RWMutex
	m   *segMap // the read-only mapping; nil once closed or removed
}

// mapAt maps the segment file at length bytes; recover and rotate call
// it once per segment, before any reader can see the segment.
func (g *segment) mapAt(length int64) error {
	m, err := mapSegment(g.path, length)
	if err != nil {
		return err
	}
	g.m = m
	return nil
}

// errSegmentGone is a read of a segment that Close has unmapped, or
// that dropSegments (retention's expiry or compaction) has unlinked.
var errSegmentGone = errors.New("diskstore: segment closed or expired")

// readRecord copies one record's wire bytes out of the mapping. The copy
// is what lets the result outlive the lock: retention or Close may unmap
// the segment the moment fmu is released, so no slice of the mapping
// leaves this method.
func (g *segment) readRecord(r rec) ([]byte, error) {
	g.fmu.RLock()
	defer g.fmu.RUnlock()
	if g.m == nil {
		return nil, fmt.Errorf("%w: segment %d", errSegmentGone, g.id)
	}
	data := make([]byte, r.n)
	if err := g.m.copyAt(data, r.off+recHeaderLen); err != nil {
		return nil, fmt.Errorf("diskstore: segment %d: %w", g.id, err)
	}
	return data, nil
}

// close unmaps the segment, once; concurrent reads either finish their
// copy first or are refused.
func (g *segment) close() error {
	g.fmu.Lock()
	defer g.fmu.Unlock()
	if g.m == nil {
		return nil
	}
	err := g.m.release()
	g.m = nil
	return err
}

// remove unmaps the segment and unlinks its file.
func (g *segment) remove() error {
	uerr := g.close()
	if err := os.Remove(g.path); err != nil {
		return err
	}
	return uerr
}

// appendRecord serializes one record into buf and returns it.
func appendRecord(buf, wire []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(wire)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(wire))
	return append(buf, wire...)
}

// Tombstones ride the same record framing as blocks (length + CRC +
// payload) but carry a payload that can never be a block frame: the
// magic differs from "PB" in its second byte. A tombstone logs "object
// X was deleted here" — replay kills every earlier record of X, while
// records after the tombstone (a re-put) survive. Deletion is thereby
// as durable and crash-consistent as the puts it revokes.
const (
	tombMagic = "PLCDEL1\x00"
	tombLen   = 8 + 8 // magic + uint64 object ID
)

// tombstoneWire serializes a tombstone payload.
func tombstoneWire(obj core.ObjectID) []byte {
	buf := make([]byte, 0, tombLen)
	buf = append(buf, tombMagic...)
	return binary.BigEndian.AppendUint64(buf, uint64(obj))
}

// tombstoneObj parses a tombstone payload, reporting ok=false for
// anything else (including block frames).
func tombstoneObj(wire []byte) (core.ObjectID, bool) {
	if len(wire) != tombLen || string(wire[:8]) != tombMagic {
		return 0, false
	}
	return core.ObjectID(binary.BigEndian.Uint64(wire[8:])), true
}

// scanResult is what loading one segment yields.
type scanResult struct {
	seg       *segment
	tornBytes int64 // bytes truncated off the tail (0 = clean)
}

// loadSegment replays one segment file, validating every record CRC,
// and truncates the file at the first record that does not parse — the
// torn tail a crash mid-write leaves behind. A file too short or
// corrupt to even carry a header is truncated to empty and re-headed.
func loadSegment(path string, id uint64, maxRecord int) (scanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return scanResult{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return scanResult{}, err
	}
	fileSize := info.Size()

	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || string(hdr[:8]) != segMagic {
		// No intact header: nothing in this file is recoverable. Rewrite
		// it as an empty segment rather than guessing at its contents.
		created := time.Now()
		if werr := writeSegmentHeader(path, created); werr != nil {
			return scanResult{}, werr
		}
		seg := &segment{id: id, path: path, createdAt: created, size: segHeaderLen}
		return scanResult{seg: seg, tornBytes: fileSize}, nil
	}
	seg := &segment{
		id:        id,
		path:      path,
		createdAt: time.Unix(0, int64(binary.BigEndian.Uint64(hdr[8:]))),
	}

	br := bufio.NewReaderSize(f, 1<<20)
	off := int64(segHeaderLen)
	var rh [recHeaderLen]byte
	for {
		if fileSize-off < recHeaderLen {
			break // clean EOF or a tail too short to be a record
		}
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			break
		}
		n := int64(binary.BigEndian.Uint32(rh[:4]))
		wantCRC := binary.BigEndian.Uint32(rh[4:])
		if n == 0 || n > int64(maxRecord) || n > fileSize-off-recHeaderLen {
			break // length field torn or truncated body
		}
		wire := make([]byte, n)
		if _, err := io.ReadFull(br, wire); err != nil {
			break
		}
		if crc32.ChecksumIEEE(wire) != wantCRC {
			break // payload corrupted
		}
		obj, level, err := core.WireMeta(wire)
		if err != nil {
			if tobj, isTomb := tombstoneObj(wire); isTomb {
				// A delete committed here: every record of the object
				// earlier in the log dies; later records (a re-put)
				// survive. Same-segment predecessors are killed in-stream;
				// recover() applies the tombstone to earlier segments.
				for i := range seg.recs {
					if seg.recs[i].obj == tobj {
						seg.recs[i].dead = true
					}
				}
				seg.tombs = append(seg.tombs, tobj)
				off += recHeaderLen + n
				continue
			}
			break // CRC matched garbage that is neither block nor tombstone
		}
		seg.recs = append(seg.recs, rec{
			off:   off,
			n:     int32(n),
			obj:   obj,
			level: uint16(level),
			hash:  hashWire(wire),
		})
		off += recHeaderLen + n
	}
	seg.size = off
	torn := fileSize - off
	if torn > 0 {
		if err := os.Truncate(path, off); err != nil {
			return scanResult{}, fmt.Errorf("diskstore: truncate torn tail of %s: %w", path, err)
		}
	}
	return scanResult{seg: seg, tornBytes: torn}, nil
}

// writeSegmentHeader (re)creates path as an empty segment.
func writeSegmentHeader(path string, created time.Time) error {
	buf := make([]byte, 0, segHeaderLen)
	buf = append(buf, segMagic...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(created.UnixNano()))
	return os.WriteFile(path, buf, 0o644)
}

// listSegments returns the segment files under dir, ordered by id.
func listSegments(dir string) ([]string, []uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), segSuffix), 10, 64)
		if err != nil {
			continue
		}
		names = append(names, filepath.Join(dir, name))
		ids = append(ids, id)
	}
	sort.Sort(&segSort{names, ids})
	return names, ids, nil
}

type segSort struct {
	names []string
	ids   []uint64
}

func (s *segSort) Len() int           { return len(s.ids) }
func (s *segSort) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *segSort) Swap(i, j int) {
	s.names[i], s.names[j] = s.names[j], s.names[i]
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
}

// syncDir fsyncs the directory so segment creates and deletes survive a
// power loss; errors are returned for the caller to judge (a missing
// dir fsync weakens durability but loses no already-synced data).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
