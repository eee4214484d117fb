package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// reqKind discriminates what rides the writer queue.
type reqKind int

const (
	reqPut    reqKind = iota // append one block record
	reqSync                  // flush + fsync the active segment
	reqRotate                // seal the active segment, open the next
	reqDelete                // append a tombstone, drop the object's records
)

// writeReq is one unit of work for the writer goroutine. done is closed
// once the request's outcome (err) is decided — for puts, that means
// the batch holding the record reached the disk under the configured
// fsync mode.
type writeReq struct {
	kind    reqKind
	obj     core.ObjectID
	level   int
	hash    uint64
	wire    []byte
	removed int // reqDelete: how many records the tombstone killed
	err     error
	done    chan struct{}
}

// writerLoop is the group-commit core: the single goroutine that owns
// the active segment's append handle. It blocks for the first queued
// request, then drains whatever else has piled up — which, while a
// previous fsync was on the disk, is every concurrent put that arrived
// in the meantime — and commits the whole batch with one buffered
// write and one fsync. Batch size is latency-bounded by construction
// (nothing waits longer than one flush) and size-bounded by
// maxBatchBlocks/maxBatchBytes.
func (s *Store) writerLoop() {
	defer s.wg.Done()
	defer s.sealActive()
	batch := make([]*writeReq, 0, maxBatchBlocks)
	for first := range s.reqCh {
		batch = batch[:0]
		bytes := 0
		var ctrl *writeReq
		if first.kind == reqPut {
			batch = append(batch, first)
			bytes = len(first.wire)
		} else {
			ctrl = first
		}
	drain:
		for ctrl == nil && len(batch) < maxBatchBlocks && bytes < maxBatchBytes {
			select {
			case r, ok := <-s.reqCh:
				if !ok {
					break drain
				}
				if r.kind != reqPut {
					ctrl = r // flush what we have, then honor the control request
					break drain
				}
				batch = append(batch, r)
				bytes += len(r.wire)
			default:
				break drain
			}
		}
		if len(batch) > 0 {
			s.flush(batch, bytes)
		}
		if ctrl != nil {
			s.handleCtrl(ctrl)
		}
	}
}

// flush commits one batch: records are serialized into one buffer and
// written with one Write call, then fsynced per the configured mode
// (FsyncAlways degrades to write+fsync per record — the baseline the
// group-commit speedup in BENCH_disk.json is measured against).
func (s *Store) flush(batch []*writeReq, bytes int) {
	seg, err := s.activeForAppend(int64(bytes) + int64(len(batch)*recHeaderLen))
	if err != nil {
		s.failBatch(batch, err)
		return
	}
	base := seg.size
	var werr error
	if s.opts.Fsync == FsyncAlways {
		for _, r := range batch {
			if werr != nil {
				break
			}
			if _, werr = s.wf.Write(appendRecord(s.scratch[:0], r.wire)); werr == nil {
				t0 := time.Now()
				werr = s.wf.Sync()
				s.met.fsyncs.Inc()
				s.met.fsyncNs.ObserveSince(t0)
			}
		}
	} else {
		buf := s.scratch[:0]
		for _, r := range batch {
			buf = appendRecord(buf, r.wire)
		}
		if cap(buf) <= maxBatchBytes*2 {
			s.scratch = buf // keep the grown buffer for the next batch
		}
		_, werr = s.wf.Write(buf)
		if werr == nil && s.opts.Fsync == FsyncBatch {
			t0 := time.Now()
			werr = s.wf.Sync()
			s.met.fsyncs.Inc()
			s.met.fsyncNs.ObserveSince(t0)
		}
	}
	if werr != nil {
		// The tail of the segment is now suspect. Drop the batch back to
		// the callers (their blocks are NOT durable) and cut the file
		// back to the last committed record so the log stays replayable.
		s.met.writeErrors.Inc()
		os.Truncate(seg.path, base)
		s.failBatch(batch, fmt.Errorf("%w: disk write: %v", store.ErrStoreUnavailable, werr))
		return
	}

	s.mu.Lock()
	off := base
	for _, r := range batch {
		seg.recs = append(seg.recs, rec{
			off:   off,
			n:     int32(len(r.wire)),
			obj:   r.obj,
			level: uint16(r.level),
			hash:  r.hash,
		})
		seg.live++
		ref := blockRef{seg: seg, idx: len(seg.recs) - 1}
		s.byHash[r.hash] = append(s.byHash[r.hash], ref)
		s.byObj[r.obj] = append(s.byObj[r.obj], ref)
		s.removePendingLocked(r)
		k := objLevel{r.obj, r.level}
		tally := s.tallies[k]
		tally.count++
		tally.bytes += int64(len(r.wire))
		s.tallies[k] = tally
		s.blocks++
		s.bytes += int64(len(r.wire))
		off += recHeaderLen + int64(len(r.wire))
	}
	seg.size = off
	s.met.setInventory(s.blocks, s.bytes, len(s.segs))
	s.mu.Unlock()

	s.met.flushes.Inc()
	s.met.batchBlocks.Observe(int64(len(batch)))
	s.met.batchBytes.Observe(int64(bytes))
	s.met.writeBytes.Add(uint64(off - base))
	for _, r := range batch {
		close(r.done)
	}
	if seg.size >= s.opts.SegmentBytes {
		if err := s.rotate(); err != nil {
			s.opts.Logf("diskstore: rotate after full segment: %v", err)
		}
	}
}

// failBatch reports err to every request and unreserves the blocks.
func (s *Store) failBatch(batch []*writeReq, err error) {
	s.mu.Lock()
	for _, r := range batch {
		r.err = err
		s.removePendingLocked(r)
	}
	s.mu.Unlock()
	for _, r := range batch {
		close(r.done)
	}
}

// removePendingLocked drops a request from the dedup reservation map.
func (s *Store) removePendingLocked(r *writeReq) {
	list := s.pending[r.hash]
	for i, p := range list {
		if p == r {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(s.pending, r.hash)
	} else {
		s.pending[r.hash] = list
	}
	s.pendBlocks--
}

// handleCtrl serves sync, rotate and delete requests on the writer
// goroutine. Deletes riding the same single-writer queue as puts gives
// them a total order against every put: a put flushed before the
// tombstone dies with the object, a put after it survives.
func (s *Store) handleCtrl(r *writeReq) {
	switch r.kind {
	case reqSync:
		if s.wf != nil {
			t0 := time.Now()
			r.err = s.wf.Sync()
			s.met.fsyncs.Inc()
			s.met.fsyncNs.ObserveSince(t0)
		}
	case reqRotate:
		if s.activeHasData() {
			r.err = s.rotate()
		}
	case reqDelete:
		r.removed, r.err = s.applyDelete(r.obj)
	}
	close(r.done)
}

// applyDelete commits one object deletion: a tombstone record is
// appended and made as durable as a put (fsync per mode), then every
// live record of the object — found through byObj, in any segment — is
// marked dead and dropped from the index, and the object's byObj key
// goes once. Runs on the writer goroutine only.
func (s *Store) applyDelete(obj core.ObjectID) (int, error) {
	s.mu.Lock()
	live := len(s.byObj[obj])
	s.mu.Unlock()
	if live == 0 {
		return 0, nil // nothing to revoke: no tombstone, stays idempotent
	}

	wire := tombstoneWire(obj)
	seg, err := s.activeForAppend(int64(recHeaderLen + len(wire)))
	if err != nil {
		return 0, err
	}
	base := seg.size
	if _, werr := s.wf.Write(appendRecord(s.scratch[:0], wire)); werr != nil {
		s.met.writeErrors.Inc()
		os.Truncate(seg.path, base)
		return 0, fmt.Errorf("%w: disk write: %v", store.ErrStoreUnavailable, werr)
	}
	if s.opts.Fsync != FsyncNone {
		t0 := time.Now()
		if werr := s.wf.Sync(); werr != nil {
			s.met.writeErrors.Inc()
			os.Truncate(seg.path, base)
			return 0, fmt.Errorf("%w: disk sync: %v", store.ErrStoreUnavailable, werr)
		}
		s.met.fsyncs.Inc()
		s.met.fsyncNs.ObserveSince(t0)
	}
	s.met.writeBytes.Add(uint64(recHeaderLen + len(wire)))

	s.mu.Lock()
	seg.size = base + recHeaderLen + int64(len(wire))
	seg.tombs = append(seg.tombs, obj)
	refs := s.byObj[obj]
	for _, ref := range refs {
		r := &ref.seg.recs[ref.idx]
		r.dead = true
		ref.seg.live--
		s.dropRefLocked(ref.seg, *r)
	}
	delete(s.byObj, obj)
	removed := len(refs)
	s.met.setInventory(s.blocks, s.bytes, len(s.segs))
	s.mu.Unlock()
	s.met.deletes.Inc()
	s.met.blocksDeleted.Add(uint64(removed))
	s.compactDeadSegments()
	return removed, nil
}

// compactDeadSegments removes sealed segments with no live records —
// the tombstone honored at compaction time. A segment carrying
// tombstones is only droppable once no earlier segment still holds
// physical records (dead ones included) of a tombstoned object: those
// bytes are still on disk, and without the tombstone a replay would
// resurrect them. Segments free up oldest-first as a consequence.
func (s *Store) compactDeadSegments() {
	s.mu.Lock()
	var drop []*segment
	keep := s.segs[:0]
	for i, seg := range s.segs {
		sealed := i < len(s.segs)-1
		droppable := sealed && seg.live == 0 && (len(seg.recs) > 0 || len(seg.tombs) > 0)
		if droppable {
			for _, obj := range seg.tombs {
				for _, prev := range keep { // earlier segments still present
					for _, r := range prev.recs {
						if r.obj == obj {
							droppable = false
						}
					}
				}
			}
		}
		if droppable {
			drop = append(drop, seg)
			continue
		}
		keep = append(keep, seg)
	}
	s.segs = keep
	if len(drop) > 0 {
		s.met.setInventory(s.blocks, s.bytes, len(s.segs))
	}
	s.mu.Unlock()

	for _, seg := range drop {
		purged, size := s.cache.purgeSeg(seg.id)
		s.met.cacheEvictions.Add(uint64(purged))
		s.met.cacheBytes.Set(size)
		if err := seg.remove(); err != nil {
			s.opts.Logf("diskstore: compact dead segment %d: %v", seg.id, err)
		}
		s.met.segmentsDeleted.Inc()
		s.met.segmentsCompacted.Inc()
		s.opts.Logf("diskstore: compacted segment %d (all %d records dead)", seg.id, len(seg.recs))
	}
	if len(drop) > 0 {
		if err := syncDir(s.dir); err != nil {
			s.opts.Logf("diskstore: fsync data dir: %v", err)
		}
	}
}

// activeForAppend returns the active segment, rotating first when the
// incoming batch would not fit and the segment already has data.
func (s *Store) activeForAppend(incoming int64) (*segment, error) {
	if s.wf == nil {
		if err := s.rotate(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	seg := s.segs[len(s.segs)-1]
	full := seg.size > segHeaderLen && seg.size+incoming > s.opts.SegmentBytes
	s.mu.Unlock()
	if full {
		if err := s.rotate(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		seg = s.segs[len(s.segs)-1]
		s.mu.Unlock()
	}
	return seg, nil
}

// activeHasData reports whether the active segment holds any records.
func (s *Store) activeHasData() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs) > 0 && s.segs[len(s.segs)-1].size > segHeaderLen
}

// rotate seals the active segment (final fsync, handle closed) and
// opens the next one. Called from the writer goroutine only.
func (s *Store) rotate() error {
	if err := s.sealActive(); err != nil {
		return err
	}
	s.mu.Lock()
	var id uint64 = 1
	if n := len(s.segs); n > 0 {
		id = s.segs[n-1].id + 1
	}
	s.mu.Unlock()
	path := filepath.Join(s.dir, segName(id))
	created := time.Now()
	if err := writeSegmentHeader(path, created); err != nil {
		return fmt.Errorf("diskstore: create segment %d: %w", id, err)
	}
	wf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: open segment %d for append: %w", id, err)
	}
	if err := syncDir(s.dir); err != nil {
		s.opts.Logf("diskstore: fsync data dir: %v", err)
	}
	seg := &segment{id: id, path: path, createdAt: created, size: segHeaderLen}
	s.wf = wf
	s.mu.Lock()
	s.segs = append(s.segs, seg)
	s.met.setInventory(s.blocks, s.bytes, len(s.segs))
	s.mu.Unlock()
	s.met.segmentsCreated.Inc()
	return nil
}

// sealActive fsyncs and closes the append handle (idempotent).
func (s *Store) sealActive() error {
	if s.wf == nil {
		return nil
	}
	serr := s.wf.Sync()
	cerr := s.wf.Close()
	s.wf = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// recover replays every segment under the data dir, rebuilding the
// index and truncating torn tails, then reopens the last segment for
// append (or defers creation of a fresh one to the first put).
func (s *Store) recover() error {
	names, ids, err := listSegments(s.dir)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	for i, name := range names {
		res, err := loadSegment(name, ids[i], store.DefaultMaxFrame)
		if err != nil {
			return err
		}
		if res.tornBytes > 0 {
			s.met.tornTails.Inc()
			s.met.tornBytes.Add(uint64(res.tornBytes))
			s.opts.Logf("diskstore: %s: truncated %d-byte torn tail, %d records recovered",
				filepath.Base(name), res.tornBytes, len(res.seg.recs))
		}
		s.segs = append(s.segs, res.seg)
	}
	// Apply each segment's tombstones to every EARLIER segment: all of a
	// prior segment's records precede the tombstone in log order, so they
	// die; records after it (same segment, handled in-stream by
	// loadSegment, or any later segment — a re-put) survive.
	for i, seg := range s.segs {
		for _, obj := range seg.tombs {
			for j := 0; j < i; j++ {
				prev := s.segs[j]
				for k := range prev.recs {
					if prev.recs[k].obj == obj {
						prev.recs[k].dead = true
					}
				}
			}
		}
	}
	// Index the survivors.
	for _, seg := range s.segs {
		for idx, r := range seg.recs {
			if r.dead {
				continue
			}
			seg.live++
			ref := blockRef{seg: seg, idx: idx}
			s.byHash[r.hash] = append(s.byHash[r.hash], ref)
			s.byObj[r.obj] = append(s.byObj[r.obj], ref)
			k := objLevel{r.obj, int(r.level)}
			tally := s.tallies[k]
			tally.count++
			tally.bytes += int64(r.n)
			s.tallies[k] = tally
			s.blocks++
			s.bytes += int64(r.n)
		}
	}
	// Reopen the last segment for append if it still has room; a full
	// (or absent) one is left sealed and the first flush rotates.
	if n := len(s.segs); n > 0 && s.segs[n-1].size < s.opts.SegmentBytes {
		wf, err := os.OpenFile(s.segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("diskstore: reopen active segment: %w", err)
		}
		s.wf = wf
	}
	return nil
}
