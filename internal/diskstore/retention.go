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
// so its blocks become deletable on a later tick.

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

	s.mu.Lock()
	var expired []*segment
	keep := s.segs[:0]
	for i, seg := range s.segs {
		sealed := i < len(s.segs)-1
		if sealed && seg.createdAt.Before(cutoff) {
			expired = append(expired, seg)
			continue
		}
		keep = append(keep, seg)
	}
	s.segs = keep
	rotateActive := false
	if n := len(s.segs); n > 0 {
		active := s.segs[n-1]
		rotateActive = active.size > segHeaderLen && active.createdAt.Before(cutoff)
	}
	gone := make(map[*segment]bool, len(expired))
	touched := make(map[core.ObjectID]struct{})
	for _, seg := range expired {
		gone[seg] = true
		for _, r := range seg.recs {
			if r.dead {
				continue // a delete already dropped it from the index
			}
			s.dropRefLocked(seg, r)
			touched[r.obj] = struct{}{}
		}
	}
	for obj := range touched {
		s.pruneObjLocked(obj, gone)
	}
	if len(expired) > 0 {
		s.met.setInventory(&s.inv, len(s.segs))
	}
	s.mu.Unlock()

	for _, seg := range expired {
		purged, size := s.cache.purgeSeg(seg.id)
		s.met.cacheEvictions.Add(uint64(purged))
		s.met.cacheBytes.Set(size)
		blocks, bytes := len(seg.recs), seg.size-segHeaderLen
		if err := seg.remove(); err != nil {
			s.opts.Logf("diskstore: delete expired segment %d: %v", seg.id, err)
		}
		s.met.segmentsDeleted.Inc()
		s.met.blocksExpired.Add(uint64(blocks))
		s.met.bytesExpired.Add(uint64(bytes))
		s.opts.Logf("diskstore: expired segment %d (%d blocks, %d bytes) beyond the %v window",
			seg.id, blocks, bytes, s.opts.Retention)
	}
	if len(expired) > 0 {
		if err := syncDir(s.dir); err != nil {
			s.opts.Logf("diskstore: fsync data dir: %v", err)
		}
	}

	if rotateActive {
		s.requestRotate()
	}
}

// pruneObjLocked drops an object's byObj refs into expired segments, in
// one pass per object however many of its records expired.
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
		refs[i] = blockRef{} // let the expired segments go
	}
	s.byObj[obj] = kept
}

// dropRefLocked removes one expired or deleted record from byHash and
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
