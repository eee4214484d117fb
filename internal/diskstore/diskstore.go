// Package diskstore is the disk-backed storage engine behind the store
// daemon: an append-only log of coded blocks in their core wire
// encoding, split into rotating segment files, with an in-memory index
// rebuilt by a CRC-checked scan on startup. It exists because the
// paper's premise is *persistence* — prioritized coded blocks must
// outlive node failures — and a RAM-only store makes every restart a
// data death while capping sustained traffic at memory size.
//
// The performance core is a group-commit writer: concurrent puts are
// coalesced by a single writer goroutine into one buffered write and
// one fsync per batch, so durability costs one disk flush per tens of
// blocks instead of one per block (the same batching economics as the
// word-parallel kernels, applied to I/O). Reads go through a small
// byte-bounded block cache and copy a miss out of a read-only mapping of
// its segment; old segments age out under a TTL rolling window so
// measurement epochs reclaim their space.
//
// A Store implements store.BlockStore, so `prlcd serve -data-dir`
// swaps it in behind the unchanged TCP surface: blocks on disk are
// byte-identical to blocks on the socket, and a segment is replayable
// with the ordinary core.CodedBlock unmarshal path.
package diskstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// FsyncMode selects the durability/throughput tradeoff of the writer.
type FsyncMode int

const (
	// FsyncBatch is group commit: one fsync per write batch (default).
	// A crash loses at most the unacknowledged tail of the current
	// batch — and clients treat unacked puts as failed, so nothing a
	// client saw succeed is lost.
	FsyncBatch FsyncMode = iota
	// FsyncAlways fsyncs after every block: the per-put durability
	// baseline the group-commit speedup is measured against.
	FsyncAlways
	// FsyncNone never fsyncs explicitly; OS writeback decides. Fastest,
	// survives process crashes but not power loss.
	FsyncNone
)

// ParseFsyncMode maps the -fsync flag values to a mode.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "batch", "":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf("diskstore: unknown fsync mode %q (want batch, always or none)", s)
	}
}

func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncNone:
		return "none"
	default:
		return "batch"
	}
}

// Options parameterizes a disk store.
type Options struct {
	// SegmentBytes is the rotation threshold: once the active segment
	// reaches it, the segment is sealed and a new one starts. Default
	// 64 MiB.
	SegmentBytes int64
	// Fsync selects the durability mode. Default FsyncBatch.
	Fsync FsyncMode
	// Retention is the rolling window: sealed segments whose creation
	// time is older than this are deleted, blocks included. 0 keeps
	// everything forever.
	Retention time.Duration
	// MaxBlocks caps the stored inventory (0 = unbounded); puts beyond
	// it are rejected with store.ErrStoreFull.
	MaxBlocks int
	// CacheBytes bounds the read-through block cache. Default 16 MiB;
	// negative disables caching.
	CacheBytes int64
	// Logf receives recovery and retention notices (torn tails
	// truncated, segments expired). Default log.Printf.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the diskstore_* series (see
	// DESIGN.md §12). Nil disables instrumentation at zero cost.
	Metrics *metrics.Registry
}

func (o *Options) fillDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 16 << 20
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
}

// The group-commit writer's fixed sizing. A block record is bounded by
// store.DefaultMaxFrame, the wire's own limit, so every block a client
// can send is a record a restart can replay.
const (
	// maxBatchBlocks and maxBatchBytes bound one group-commit batch.
	maxBatchBlocks = 256
	maxBatchBytes  = 1 << 20
	// queueDepth is the put queue feeding the writer; while a flush is on
	// the disk, up to this many puts pile up and form the next batch.
	queueDepth = 1024
	// maxPutBytes bounds the bytes one put request appends, record
	// headers included. A put frame's body is at most
	// store.DefaultMaxFrame and spends at least 4 bytes of length on each
	// block where a record spends recHeaderLen = 8, so one frame's records
	// take at most twice the frame. PutBatch cuts a larger call (only a
	// caller of the Go API can make one) into requests of this size.
	maxPutBytes = 2 * store.DefaultMaxFrame
	// maxAppendBytes bounds one batch on disk. writerLoop takes requests
	// while its batch holds fewer than maxBatchBlocks records and
	// maxBatchBytes wire bytes, and the last request it takes appends at
	// most maxPutBytes.
	maxAppendBytes = maxBatchBytes + maxBatchBlocks*recHeaderLen + maxPutBytes
)

// activeMapLen is the length the active segment is mapped at, a bound
// no size it can reach exceeds. activeForAppend appends to a segment
// holding records only while it stays within SegmentBytes, and to an
// empty one (segHeaderLen bytes) a single batch of at most
// maxAppendBytes.
func (s *Store) activeMapLen() int64 {
	return s.opts.SegmentBytes + segHeaderLen + maxAppendBytes
}

// Store is the disk-backed block store. It is safe for concurrent use;
// all mutation of the index happens under mu, all file appends happen
// on the single writer goroutine.
type Store struct {
	dir  string
	opts Options
	met  diskMetrics

	mu         sync.Mutex
	segs       []*segment // ordered by id; segs[len-1] is the active one
	byHash     map[uint64][]blockRef
	byObj      map[core.ObjectID][]blockRef // live records per object, log order
	pending    map[uint64][]*writeReq
	inv        store.Inventory
	pendBlocks int
	closed     bool
	putters    sync.WaitGroup // in-flight senders on reqCh
	dropMu     sync.Mutex     // serializes dropSegments

	cache *blockCache

	// Writer-goroutine state: the active segment's append handle and the
	// reusable batch serialization buffer. Only writerLoop (and recover,
	// which happens-before it) touch these.
	wf      *os.File
	scratch []byte

	reqCh   chan *writeReq
	stopRet chan struct{}
	wg      sync.WaitGroup
}

// blockRef locates one committed block record.
type blockRef struct {
	seg *segment
	idx int // index into seg.recs
}

var _ store.BlockStore = (*Store)(nil)

// Open opens (or creates) a disk store rooted at dir, replaying every
// segment to rebuild the index. Torn tails — records whose length or
// CRC does not validate, the signature of a crash mid-write — are
// truncated away and counted; everything before them is recovered.
func Open(dir string, opts Options) (*Store, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		met:     newDiskMetrics(opts.Metrics),
		byHash:  make(map[uint64][]blockRef),
		byObj:   make(map[core.ObjectID][]blockRef),
		pending: make(map[uint64][]*writeReq),
		cache:   newBlockCache(opts.CacheBytes),
		scratch: make([]byte, 0, maxBatchBytes),
		reqCh:   make(chan *writeReq, queueDepth),
		stopRet: make(chan struct{}),
	}
	t0 := time.Now()
	if err := s.recover(); err != nil {
		for _, seg := range s.segs {
			seg.close()
		}
		return nil, err
	}
	s.met.recoveryNs.Set(time.Since(t0).Nanoseconds())
	s.met.recoveredBlocks.Add(uint64(s.inv.Blocks()))
	s.met.setInventory(&s.inv, len(s.segs))
	s.wg.Add(1)
	go s.writerLoop()
	if opts.Retention > 0 {
		s.wg.Add(1)
		go s.retentionLoop()
	}
	return s, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// hashWire is the dedup hash: FNV-64a over the full wire encoding.
// Collisions are resolved by byte comparison (see dupLocked), so the
// hash only has to be cheap and well-spread, never trusted.
func hashWire(wire []byte) uint64 {
	h := fnv.New64a()
	h.Write(wire)
	return h.Sum64()
}

// Put stores one block: it reserves the block in the dedup index, hands
// it to the group-commit writer, and waits for the batch holding it to
// reach the disk. Identical concurrent puts coalesce onto one record —
// followers wait for the leader's flush, so a dedup answer is never
// less durable than a stored one.
func (s *Store) Put(obj core.ObjectID, level int, wire []byte) (bool, error) {
	puts := []store.BatchPut{{Obj: obj, Level: level, Wire: wire}}
	s.PutBatch(puts)
	return puts[0].Stored, puts[0].Err
}

// PutBatch stores a multi-block put's blocks with Put's semantics, but
// reserves and queues every one before it waits for any: the writer
// takes them as one request into one batch, so FsyncBatch commits the
// whole frame with one fsync. A call past maxPutBytes, which no frame
// reaches, is queued as several requests. It implements
// store.BatchPutter.
func (s *Store) PutBatch(puts []store.BatchPut) {
	t0 := time.Now()
	// wait[i] is the record puts[i] waits on: its own, or an unflushed
	// identical one it joins (then it is a dedup).
	wait := make([]*writeReq, len(puts))
	var recs []*writeReq
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for i := range puts {
			puts[i].Err = fmt.Errorf("%w: engine closed", store.ErrStoreUnavailable)
		}
		return
	}
	for i := range puts {
		p := &puts[i]
		var fresh bool
		if wait[i], fresh, p.Err = s.reserveLocked(p.Obj, p.Level, p.Wire); fresh {
			recs = append(recs, wait[i])
			p.Stored = true
		}
	}
	if len(recs) > 0 {
		s.putters.Add(1)
	}
	s.mu.Unlock()
	if len(recs) > 0 {
		for rest := recs; len(rest) > 0; {
			n, size := 1, recHeaderLen+len(rest[0].wire)
			for ; n < len(rest) && size+recHeaderLen+len(rest[n].wire) <= maxPutBytes; n++ {
				size += recHeaderLen + len(rest[n].wire)
			}
			s.reqCh <- &writeReq{kind: reqPut, recs: rest[:n]}
			rest = rest[n:]
		}
		s.putters.Done()
	}
	for i, w := range wait {
		if w == nil {
			continue
		}
		<-w.done
		if w.err != nil {
			puts[i].Stored, puts[i].Err = false, w.err
		}
	}
	if len(recs) > 0 {
		s.met.putWaitNs.ObserveSince(t0)
	}
}

// reserveLocked checks one block and reserves it for the writer. It
// returns the record the put waits on — a fresh one to queue, or an
// unflushed identical record it joins — or nil when the block needs no
// write (a committed duplicate) or was refused (the error).
func (s *Store) reserveLocked(obj core.ObjectID, level int, wire []byte) (rec *writeReq, fresh bool, err error) {
	if len(wire) == 0 {
		return nil, false, fmt.Errorf("%w: empty block", store.ErrBadRequest)
	}
	if obj == core.AllObjects {
		return nil, false, fmt.Errorf("%w: cannot store under the all-objects wildcard", store.ErrBadRequest)
	}
	if len(wire) > store.DefaultMaxFrame {
		return nil, false, fmt.Errorf("%w: block %d bytes exceeds record limit %d",
			store.ErrBadRequest, len(wire), store.DefaultMaxFrame)
	}
	hash := hashWire(wire)
	// Dup of an unflushed put: join its flush instead of re-writing.
	for _, p := range s.pending[hash] {
		if string(p.wire) == string(wire) {
			return p, false, nil
		}
	}
	if dup, err := s.dupLocked(hash, wire); err != nil {
		return nil, false, err
	} else if dup {
		s.met.putsDeduped.Inc()
		return nil, false, nil
	}
	if s.opts.MaxBlocks > 0 && s.inv.Blocks()+s.pendBlocks >= s.opts.MaxBlocks {
		return nil, false, fmt.Errorf("%w: %d blocks stored, cap %d", store.ErrStoreFull, s.inv.Blocks(), s.opts.MaxBlocks)
	}
	req := &writeReq{
		obj:   obj,
		level: level,
		hash:  hash,
		wire:  append([]byte(nil), wire...), // the engine must not retain the caller's buffer
		done:  make(chan struct{}),
	}
	s.pending[hash] = append(s.pending[hash], req)
	s.pendBlocks++
	return req, true, nil
}

// dupLocked reports whether an identical committed block exists. Hash
// candidates are verified byte-for-byte (reading them back through the
// cache), so a hash collision can never drop a distinct block.
func (s *Store) dupLocked(hash uint64, wire []byte) (bool, error) {
	for _, ref := range s.byHash[hash] {
		rec := ref.seg.recs[ref.idx]
		if int(rec.n) != len(wire) {
			continue
		}
		data, err := s.readBlock(ref.seg, rec)
		if errors.Is(err, errSegmentGone) {
			// The candidate aged out mid-check; it no longer blocks the put.
			continue
		}
		if err != nil {
			return false, err
		}
		if string(data) == string(wire) {
			return true, nil
		}
	}
	return false, nil
}

// Get returns the wire bytes of every block of obj with level <=
// maxLevel (maxLevel < 0 = all) in log order, reading through the block
// cache. The records to read come from the per-object index (byObj), so
// a read costs that object's records, not the store's. The all-objects
// wildcard is rejected with store.ErrBadRequest.
func (s *Store) Get(obj core.ObjectID, maxLevel int) ([][]byte, error) {
	type lookup struct {
		seg *segment
		rec rec
	}
	if obj == core.AllObjects {
		return nil, fmt.Errorf("%w: get needs a concrete object", store.ErrBadRequest)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: engine closed", store.ErrStoreUnavailable)
	}
	refs := s.byObj[obj]
	want := make([]lookup, 0, len(refs))
	for _, ref := range refs {
		if r := ref.seg.recs[ref.idx]; maxLevel < 0 || int(r.level) <= maxLevel {
			want = append(want, lookup{ref.seg, r})
		}
	}
	s.mu.Unlock()
	out := make([][]byte, 0, len(want))
	for _, l := range want {
		data, err := s.readBlock(l.seg, l.rec)
		if errors.Is(err, errSegmentGone) {
			// The segment expired between the index snapshot and the read:
			// its blocks are no longer part of the inventory.
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", store.ErrStoreUnavailable, err)
		}
		out = append(out, data)
	}
	if len(out) < len(want) {
		// A segment also reads as gone when Close unmaps it mid-Get; then
		// what was skipped is still stored, and a short list would be a
		// wrong answer, not a smaller inventory.
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil, fmt.Errorf("%w: engine closed", store.ErrStoreUnavailable)
		}
	}
	return out, nil
}

// readBlock fetches one record's wire bytes, cache first.
func (s *Store) readBlock(seg *segment, r rec) ([]byte, error) {
	if data, ok := s.cache.get(seg.id, r.off); ok {
		s.met.cacheHits.Inc()
		return data, nil
	}
	s.met.cacheMisses.Inc()
	data, err := seg.readRecord(r)
	if err != nil {
		return nil, err
	}
	evicted, size := s.cache.put(seg.id, r.off, data)
	s.met.cacheEvictions.Add(uint64(evicted))
	s.met.cacheBytes.Set(size)
	return data, nil
}

// Delete removes every stored block of obj by appending a durable
// tombstone record through the writer queue — serialized against puts,
// so a put flushed before the tombstone dies and one after it survives.
// The object's records are dropped from the index immediately; their
// file bytes are reclaimed when their segments compact (every record
// dead) or expire under retention. Idempotent: deleting an absent
// object appends nothing and answers 0.
func (s *Store) Delete(obj core.ObjectID) (int, error) {
	if obj == core.AllObjects {
		return 0, fmt.Errorf("%w: delete needs a concrete object", store.ErrBadRequest)
	}
	req := &writeReq{kind: reqDelete, obj: obj, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: engine closed", store.ErrStoreUnavailable)
	}
	s.putters.Add(1)
	s.mu.Unlock()
	s.reqCh <- req
	s.putters.Done()
	<-req.done
	return req.removed, req.err
}

// Stats returns an inventory snapshot, assembled by the same
// store.Inventory as MemStore's, so the stat wire path is engine-agnostic.
func (s *Store) Stats() store.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inv.Stats()
}

// Len returns the number of stored blocks.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inv.Blocks()
}

// Bytes returns the total stored wire bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inv.Bytes()
}

// Segments returns how many segment files currently exist.
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs)
}

// SegmentInfos snapshots per-segment metadata, ascending by id. The last
// segment is the active one (still receiving writes); all earlier
// segments are sealed. It implements store.SegmentLister, behind the
// `prlcd store segments` inspection subcommand.
func (s *Store) SegmentInfos() []store.SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]store.SegmentInfo, 0, len(s.segs))
	for i, seg := range s.segs {
		out = append(out, store.SegmentInfo{
			ID:      seg.id,
			Records: seg.live,
			Bytes:   seg.size,
			Created: seg.createdAt,
			Active:  i == len(s.segs)-1,
		})
	}
	return out
}

// Sync flushes every queued put to disk and fsyncs the active segment,
// regardless of fsync mode. Close calls it; tests and checkpoints can
// call it directly.
func (s *Store) Sync() error {
	req := &writeReq{kind: reqSync, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("%w: engine closed", store.ErrStoreUnavailable)
	}
	s.putters.Add(1)
	s.mu.Unlock()
	s.reqCh <- req
	s.putters.Done()
	<-req.done
	return req.err
}

// Close drains the put queue, flushes and fsyncs the tail, and unmaps
// every segment. Puts racing Close either complete durably or report the
// store closed; Gets racing it return complete data or report the store
// closed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopRet)
	s.putters.Wait() // no new senders can start: closed is set
	close(s.reqCh)   // writer drains the queue, then flushes and exits
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, seg := range s.segs {
		if err := seg.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
