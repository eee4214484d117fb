package diskstore

import (
	"encoding/binary"
	"os"
	"testing"
	"time"

	"repro/internal/core"
)

// One tombstone rule governs replay, compaction and retention: a
// tombstone kills every earlier record of its object, and a segment
// carrying one stays while an earlier segment still holds a record of
// that object. These tests pin the rule where a segment leaves the log
// and check it after a reopen, where a lost tombstone would show.

// recBytes is the on-disk size of one keyedBlocks record: a 69-byte
// keyed frame behind the 8-byte record header. The tests size segments
// in records with it.
const recBytes = 77

// putObj stores n keyed blocks of obj, one Put (and so one flush) each.
func putObj(t *testing.T, s *Store, obj core.ObjectID, n int, seed int64) {
	t.Helper()
	wires, lvls := keyedBlocks(t, obj, n, seed)
	for i, w := range wires {
		if recHeaderLen+len(w) != recBytes {
			t.Fatalf("block %d is a %d-byte record, want %d", i, recHeaderLen+len(w), recBytes)
		}
		if stored, err := s.Put(obj, lvls[i], w); err != nil || !stored {
			t.Fatalf("put %v block %d: stored=%v err=%v", obj, i, stored, err)
		}
	}
}

// deleteObj deletes obj, which must have had blocks.
func deleteObj(t *testing.T, s *Store, obj core.ObjectID) {
	t.Helper()
	if n, err := s.Delete(obj); err != nil || n == 0 {
		t.Fatalf("delete %v: removed %d, err %v", obj, n, err)
	}
}

// wantSegments checks the store's segment count and the files on disk.
// A put is acked before the writer rotates past a full segment, so it
// syncs first: the sync queues behind the rotation.
func wantSegments(t *testing.T, s *Store, want int) {
	t.Helper()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	names, _, err := listSegments(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Segments(); got != want || len(names) != want {
		t.Fatalf("Segments() = %d with %d files on disk, want %d", got, len(names), want)
	}
}

// reopen closes s and opens its directory again with opts.
func reopen(t *testing.T, s *Store, opts Options) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return openTest(t, s.Dir(), opts)
}

// wantBlocks checks how many blocks each object has.
func wantBlocks(t *testing.T, s *Store, want map[core.ObjectID]int) {
	t.Helper()
	for obj, n := range want {
		got, err := s.Get(obj, -1)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 && len(got) > 0 {
			t.Fatalf("deleted object resurrected with %d blocks after reopen", len(got))
		}
		if len(got) != n {
			t.Fatalf("object %v has %d blocks after reopen, want %d", obj, len(got), n)
		}
	}
}

// TestCompactionUnlinksDeadSegment deletes the only object of a sealed
// segment: compaction unlinks it, and the file leaves the disk.
func TestCompactionUnlinksDeadSegment(t *testing.T) {
	x, y := core.NamedObject("x"), core.NamedObject("y")
	s := openTest(t, t.TempDir(), Options{SegmentBytes: segHeaderLen + 8*recBytes})
	putObj(t, s, x, 8, 1)
	putObj(t, s, y, 2, 2)
	wantSegments(t, s, 2) // x fills segment 1; y and, next, x's tombstone in 2
	deleteObj(t, s, x)
	wantSegments(t, s, 1)
	wantBlocks(t, reopen(t, s, Options{}), map[core.ObjectID]int{x: 0, y: 2})
}

// TestCompactionKeepsNeededTombstone builds a sealed segment with no
// live record that still carries x's tombstone while segment 1 holds
// x's dead records: compaction must keep it, or a reopen brings x back.
func TestCompactionKeepsNeededTombstone(t *testing.T) {
	x, y, z, v := core.NamedObject("x"), core.NamedObject("y"), core.NamedObject("z"), core.NamedObject("v")
	s := openTest(t, t.TempDir(), Options{SegmentBytes: segHeaderLen + 8*recBytes})
	putObj(t, s, x, 4, 1)
	putObj(t, s, y, 4, 2) // x and y fill segment 1
	wantSegments(t, s, 2)
	deleteObj(t, s, x) // x's tombstone opens segment 2
	putObj(t, s, z, 2, 3)
	deleteObj(t, s, z)
	putObj(t, s, v, 8, 4) // v fills segment 2 and spills into 3
	wantSegments(t, s, 3)
	deleteObj(t, s, v)
	wantBlocks(t, reopen(t, s, Options{}), map[core.ObjectID]int{x: 0, y: 4, z: 0, v: 0})
}

// TestRetentionKeepsNeededTombstone steps the wall clock back between
// two rotations: segment 2, holding x's tombstone, is stamped two hours
// older than segment 1, holding x's records. Retention may expire
// segment 2 only together with segment 1, or a reopen brings x back.
func TestRetentionKeepsNeededTombstone(t *testing.T) {
	x, y := core.NamedObject("x"), core.NamedObject("y")
	opts := Options{SegmentBytes: segHeaderLen + 12*recBytes, Retention: time.Hour}
	s := openTest(t, t.TempDir(), opts)
	putObj(t, s, x, 8, 1)
	putObj(t, s, y, 4, 2) // y keeps segment 1 live, so compaction leaves it
	deleteObj(t, s, x)
	s.requestRotate() // seal segment 2, x's tombstone in it
	wantSegments(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, _, err := listSegments(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	// Stamp segment 2 two hours before segment 1.
	var stamp [8]byte
	binary.BigEndian.PutUint64(stamp[:], binary.BigEndian.Uint64(hdr[8:segHeaderLen])-uint64(2*time.Hour))
	f, err := os.OpenFile(names[1], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(stamp[:], 8); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, s.Dir(), opts)
	s.enforceRetention(time.Now().Add(10 * time.Minute)) // only segment 2 is past the window
	s = reopen(t, s, opts)
	wantBlocks(t, s, map[core.ObjectID]int{x: 0, y: 4})
	wantSegments(t, s, 3)
	s.enforceRetention(time.Now().Add(2 * time.Hour)) // segment 1 goes, and 2 behind it
	wantSegments(t, s, 1)
	wantBlocks(t, reopen(t, s, opts), map[core.ObjectID]int{x: 0, y: 0})
}
