package diskstore

import (
	"time"

	"repro/internal/core"
)

// Retention: sealed segments older than Options.Retention are deleted
// whole — segment granularity is what makes a rolling window cheap
// (one unlink reclaims a file of blocks, no per-record compaction).
// The active segment is never deleted; when it grows older than the
// window while still unfilled, the loop asks the writer to rotate it
// so its blocks become deletable on a later tick. Expiry and compaction
// (compactDeadSegments) both remove segments through dropSegments, so
// one tombstone rule guards both.

// retentionCheck is how often the loop enforces the window (only when
// Options.Retention > 0): a window is hours or days, so a minute's lag
// in expiring a segment is noise.
const retentionCheck = time.Minute

// retentionLoop enforces the rolling window every retentionCheck.
func (s *Store) retentionLoop() {
	defer s.wg.Done()
	t := time.NewTicker(retentionCheck)
	defer t.Stop()
	for {
		select {
		case <-s.stopRet:
			return
		case <-t.C:
			s.enforceRetention(time.Now())
		}
	}
}

// enforceRetention deletes expired sealed segments and requests a
// rotation when the active segment itself has outlived the window.
func (s *Store) enforceRetention(now time.Time) {
	cutoff := now.Add(-s.opts.Retention)
	s.dropSegments(func(seg *segment) bool { return seg.createdAt.Before(cutoff) },
		func(seg *segment, err error) {
			blocks, bytes := len(seg.recs), seg.size-segHeaderLen
			if err != nil {
				s.opts.Logf("diskstore: delete expired segment %d: %v", seg.id, err)
			}
			s.met.blocksExpired.Add(uint64(blocks))
			s.met.bytesExpired.Add(uint64(bytes))
			s.opts.Logf("diskstore: expired segment %d (%d blocks, %d bytes) beyond the %v window",
				seg.id, blocks, bytes, s.opts.Retention)
		})
	s.mu.Lock()
	n := len(s.segs)
	rotateActive := n > 0 && s.segs[n-1].size > segHeaderLen && s.segs[n-1].createdAt.Before(cutoff)
	s.mu.Unlock()
	if rotateActive {
		s.requestRotate()
	}
}

// dropSegments is the only code that unlinks a segment. Under mu it
// offers every sealed segment to pick, oldest first, and drops each
// picked one that no earlier kept segment still needs the tombstones of
// (tombstonesNeeded); the dropped segments' live records leave the
// index. Then each is purged from the cache and unlinked, done reports
// it with the unlink's error, and the directory is fsynced once. dropMu
// keeps concurrent callers from unlinking out of log order, so a crash
// between two unlinks never leaves records whose tombstone is gone.
func (s *Store) dropSegments(pick func(*segment) bool, done func(seg *segment, err error)) {
	s.dropMu.Lock()
	defer s.dropMu.Unlock()
	s.mu.Lock()
	var drop []*segment
	keep := s.segs[:0]
	for i, seg := range s.segs {
		if i < len(s.segs)-1 && pick(seg) && !tombstonesNeeded(seg, keep) {
			drop = append(drop, seg)
			continue
		}
		keep = append(keep, seg)
	}
	s.segs = keep
	if len(drop) == 0 {
		s.mu.Unlock()
		return
	}
	gone := make(map[*segment]bool, len(drop))
	touched := make(map[core.ObjectID]struct{})
	for _, seg := range drop {
		gone[seg] = true
		for _, r := range seg.recs {
			if !r.dead { // a delete already dropped the dead ones from the index
				s.dropRefLocked(seg, r)
				touched[r.obj] = struct{}{}
			}
		}
	}
	for obj := range touched {
		s.pruneObjLocked(obj, gone)
	}
	s.met.setInventory(&s.inv, len(s.segs))
	s.mu.Unlock()

	for _, seg := range drop {
		purged, size := s.cache.purgeSeg(seg.id)
		s.met.cacheEvictions.Add(uint64(purged))
		s.met.cacheBytes.Set(size)
		err := seg.remove()
		s.met.segmentsDeleted.Inc()
		done(seg, err)
	}
	if err := syncDir(s.dir); err != nil {
		s.opts.Logf("diskstore: fsync data dir: %v", err)
	}
}

// tombstonesNeeded is the guard on every removal: it reports whether
// seg tombstones an object of which a segment in kept (the earlier ones
// staying) still holds a record, dead ones included. Those bytes are
// still on disk, and without the tombstone a replay would resurrect
// them. One pass over kept's records, however many tombstones seg has.
func tombstonesNeeded(seg *segment, kept []*segment) bool {
	if len(seg.tombs) == 0 {
		return false
	}
	tombed := make(map[core.ObjectID]struct{}, len(seg.tombs))
	for _, obj := range seg.tombs {
		tombed[obj] = struct{}{}
	}
	for _, prev := range kept {
		for _, r := range prev.recs {
			if _, ok := tombed[r.obj]; ok {
				return true
			}
		}
	}
	return false
}

// pruneObjLocked drops an object's byObj refs into dropped segments, in
// one pass per object however many of its records went.
func (s *Store) pruneObjLocked(obj core.ObjectID, gone map[*segment]bool) {
	refs := s.byObj[obj]
	kept := refs[:0]
	for _, ref := range refs {
		if !gone[ref.seg] {
			kept = append(kept, ref)
		}
	}
	if len(kept) == 0 {
		delete(s.byObj, obj)
		return
	}
	for i := len(kept); i < len(refs); i++ {
		refs[i] = blockRef{} // let the dropped segments go
	}
	s.byObj[obj] = kept
}

// dropRefLocked removes one dropped or deleted record from byHash and
// the inventory. byObj is the caller's to update, because both
// callers can do it once per object instead of once per record.
func (s *Store) dropRefLocked(seg *segment, r rec) {
	refs := s.byHash[r.hash]
	for i := 0; i < len(refs); {
		if refs[i].seg == seg {
			refs = append(refs[:i], refs[i+1:]...)
			continue
		}
		i++
	}
	if len(refs) == 0 {
		delete(s.byHash, r.hash)
	} else {
		s.byHash[r.hash] = refs
	}
	s.inv.Remove(r.obj, int(r.level), int(r.n))
}

// requestRotate asks the writer to seal the active segment; a no-op on
// a closed (or closing) store.
func (s *Store) requestRotate() {
	req := &writeReq{kind: reqRotate, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.putters.Add(1)
	s.mu.Unlock()
	select {
	case s.reqCh <- req:
		s.putters.Done()
		<-req.done
		if req.err != nil {
			s.opts.Logf("diskstore: rotate aged active segment: %v", req.err)
		}
	case <-s.stopRet:
		s.putters.Done()
	}
}
