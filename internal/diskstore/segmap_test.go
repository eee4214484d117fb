package diskstore

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// The read path copies records out of a read-only mapping of each
// segment. These tests read every record back with the block cache off,
// so each read is served by the mapping: across rotation and a batch
// larger than a segment, after a restart reopens the active segment,
// after a failed write cut the tail, and while Close unmaps. fakeWire
// frames carry no object, so a test that restarts stores object zero
// only: replay files every record under the object its wire names.

// objBlocks is what a test stored, per object.
type objBlocks map[core.ObjectID][][]byte

// putBatch stores n distinct size-byte blocks of obj in one PutBatch.
func (want objBlocks) putBatch(t *testing.T, s *Store, rng *rand.Rand, obj core.ObjectID, n, size int) {
	t.Helper()
	puts := make([]store.BatchPut, n)
	for i := range puts {
		puts[i] = store.BatchPut{Obj: obj, Level: i % 3, Wire: fakeWire(rng, i%3, size)}
	}
	s.PutBatch(puts)
	for i, p := range puts {
		if p.Err != nil || !p.Stored {
			t.Fatalf("object %v block %d: stored=%v err=%v", obj, i, p.Stored, p.Err)
		}
		want[obj] = append(want[obj], p.Wire)
	}
}

// check reads every object back and compares it with what was stored.
func (want objBlocks) check(t *testing.T, s *Store) {
	t.Helper()
	for obj, wires := range want {
		got, err := s.Get(obj, -1)
		if err != nil {
			t.Fatalf("get %v: %v", obj, err)
		}
		sameSet(t, got, wires)
	}
}

// largestSegment returns the size of the largest segment.
func largestSegment(s *Store) int64 {
	var largest int64
	for _, info := range s.SegmentInfos() {
		largest = max(largest, info.Bytes)
	}
	return largest
}

// TestReadsAcrossRotation reads records from sealed and active segments
// with 4 KiB segments, including two 64 KiB batches that each land
// whole in an empty active segment: the one record-append that takes a
// segment past SegmentBytes, and so the case the active mapping's
// length is sized for.
func TestReadsAcrossRotation(t *testing.T) {
	const segBytes = 4 << 10
	s := openTest(t, t.TempDir(), Options{SegmentBytes: segBytes, CacheBytes: -1, Fsync: FsyncNone})
	rng := rand.New(rand.NewSource(11))
	want := objBlocks{}
	want.putBatch(t, s, rng, 1, 32, 2<<10) // the first flush opens an empty segment
	if got := largestSegment(s); got <= segBytes {
		t.Fatalf("largest segment is %d bytes; the batch should have passed SegmentBytes", got)
	}
	want.check(t, s)
	for obj := core.ObjectID(2); obj < 6; obj++ {
		for i := 0; i < 12; i++ {
			want.putBatch(t, s, rng, obj, 1, 300)
		}
	}
	s.requestRotate()
	want.putBatch(t, s, rng, 6, 32, 2<<10)
	want.check(t, s)
	if n := s.Segments(); n < 4 {
		t.Fatalf("%d segments, want several rotations", n)
	}
}

// TestPutBatchPastMaxPutBytes stores one call larger than any put
// frame and than the active segment's mapping: PutBatch queues it as
// several requests, so no batch outgrows the mapping and every block
// reads back.
func TestPutBatchPastMaxPutBytes(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{SegmentBytes: 4 << 10, CacheBytes: -1, Fsync: FsyncNone})
	rng := rand.New(rand.NewSource(12))
	const size = 11<<20 + 512<<10
	if segHeaderLen+3*(size+recHeaderLen) <= s.activeMapLen() {
		t.Fatal("the call no longer outgrows the active mapping")
	}
	want := objBlocks{}
	want.putBatch(t, s, rng, 1, 3, size)
	want.check(t, s)
	if got := largestSegment(s); got > segHeaderLen+maxPutBytes {
		t.Fatalf("a %d-byte segment: the call was appended as one request", got)
	}
}

// TestReadsAfterRestartReopenedActive reads the segment a restart
// reopens for append, then appends to it and reads again: the reopened
// segment is mapped at the active length, not at its size on disk.
func TestReadsAfterRestartReopenedActive(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 64 << 10, CacheBytes: -1, Fsync: FsyncNone}
	s := openTest(t, dir, opts)
	rng := rand.New(rand.NewSource(13))
	want := objBlocks{}
	want.putBatch(t, s, rng, core.ZeroObject, 8, 1<<10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, opts)
	want.check(t, s)
	want.putBatch(t, s, rng, core.ZeroObject, 16, 1<<10)
	want.check(t, s)
	if n := s.Segments(); n != 1 {
		t.Fatalf("%d segments, want the reopened one only", n)
	}
}

// TestReadsAfterFailedWriteTruncation fails one flush after a partial
// write left bytes at the segment's tail: the flush cuts them off, which
// must leave every indexed record readable through the mapping, before
// and after the writer resumes and across a restart.
func TestReadsAfterFailedWriteTruncation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{CacheBytes: -1}
	s := openTest(t, dir, opts)
	rng := rand.New(rand.NewSource(14))
	want := objBlocks{}
	want.putBatch(t, s, rng, core.ZeroObject, 16, 1<<10)
	if err := s.Sync(); err != nil { // the writer is idle until the next request
		t.Fatal(err)
	}
	s.mu.Lock()
	seg := s.segs[len(s.segs)-1]
	base := seg.size
	s.mu.Unlock()

	// A torn append: bytes on the file past the last record, then a
	// write that fails.
	tail, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Write(make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	tail.Close()
	wf := s.wf
	if s.wf, err = os.Open(seg.path); err != nil { // read-only: Write fails
		t.Fatal(err)
	}
	if _, err := s.Put(core.ZeroObject, 0, fakeWire(rng, 0, 1<<10)); !errors.Is(err, store.ErrStoreUnavailable) {
		t.Fatalf("put through a failing write: %v, want ErrStoreUnavailable", err)
	}
	if info, err := os.Stat(seg.path); err != nil || info.Size() != base {
		t.Fatalf("segment after the failed write: %v, %v; want %d bytes", info.Size(), err, base)
	}
	want.check(t, s)

	s.wf.Close()
	s.wf = wf
	want.putBatch(t, s, rng, core.ZeroObject, 16, 1<<10)
	want.check(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want.check(t, openTest(t, dir, opts))
}

// TestReadPastMappingFails reads a record the mapping does not cover,
// which only a wrong index can name: the read fails, and not as a
// segment that is gone, so Get reports it instead of skipping it.
func TestReadPastMappingFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), segName(1))
	if err := writeSegmentHeader(path, time.Now()); err != nil {
		t.Fatal(err)
	}
	seg := &segment{id: 1, path: path, size: segHeaderLen}
	if err := seg.mapAt(segHeaderLen); err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	_, err := seg.readRecord(rec{off: segHeaderLen, n: 64})
	if err == nil || errors.Is(err, errSegmentGone) {
		t.Fatalf("read past the mapping: %v, want an index error", err)
	}
	seg.close()
	if _, err := seg.readRecord(rec{off: 0, n: 8}); !errors.Is(err, errSegmentGone) {
		t.Fatalf("read of a closed segment: %v, want errSegmentGone", err)
	}
}

// TestGetRacingCloseLeavesNoMapping races Gets against Close. Each Get
// returns an object's complete data or ErrStoreUnavailable, never a
// partial list, and once Close returns no segment holds a mapping (or,
// without mmap, a read handle) and the append handle is closed.
func TestGetRacingCloseLeavesNoMapping(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{SegmentBytes: 4 << 10, CacheBytes: -1, Fsync: FsyncNone})
	rng := rand.New(rand.NewSource(15))
	want := objBlocks{}
	for obj := core.ObjectID(1); obj <= 4; obj++ {
		want.putBatch(t, s, rng, obj, 24, 256)
	}
	const readers = 6
	var started, wg sync.WaitGroup
	started.Add(readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			obj := core.ObjectID(g%4 + 1)
			for i := 0; ; i++ {
				got, err := s.Get(obj, -1)
				if i == 0 {
					started.Done()
				}
				if errors.Is(err, store.ErrStoreUnavailable) {
					return
				}
				if err != nil {
					t.Errorf("get %v racing Close: %v", obj, err)
					return
				}
				if len(got) != len(want[obj]) {
					t.Errorf("get %v racing Close: %d of %d blocks", obj, len(got), len(want[obj]))
					return
				}
			}
		}(g)
	}
	started.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		if seg.m != nil {
			t.Fatalf("segment %d still mapped after Close", seg.id)
		}
	}
	if s.wf != nil {
		t.Fatal("append handle still open after Close")
	}
}
