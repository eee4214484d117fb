package diskstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// quiet silences retention/recovery notices in tests that expect them.
func quiet(format string, args ...any) {}

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = quiet
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// testBlocks builds n marshaled coded blocks over a 2-level PLC code
// (4 critical + 12 bulk sources of 32 bytes) from a fixed seed.
func testBlocks(t *testing.T, n int) (*core.Levels, [][]byte, [][]byte, []int) {
	t.Helper()
	levels, err := core.NewLevels(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 32)
		rng.Read(sources[i])
	}
	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, core.PriorityDistribution{0.4, 0.6}, n)
	if err != nil {
		t.Fatal(err)
	}
	wires := make([][]byte, len(blocks))
	lvls := make([]int, len(blocks))
	for i, b := range blocks {
		w, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = w
		lvls[i] = b.Level
	}
	return levels, sources, wires, lvls
}

func putAll(t *testing.T, s *Store, wires [][]byte, lvls []int) {
	t.Helper()
	for i, w := range wires {
		stored, err := s.Put(core.ZeroObject, lvls[i], w)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if !stored {
			t.Fatalf("put %d: reported dedup for a fresh block", i)
		}
	}
}

// getAll reads every object the store's inventory lists, one Get per
// object in ascending ID, each with level <= maxLevel — a read names one
// object, so "everything" is a walk over Stats().PerObject.
func getAll(s *Store, maxLevel int) ([][]byte, error) {
	var out [][]byte
	for _, os := range s.Stats().PerObject {
		got, err := s.Get(os.Object, maxLevel)
		if err != nil {
			return nil, err
		}
		out = append(out, got...)
	}
	return out, nil
}

// sortedSet canonicalizes a block list for set comparison.
func sortedSet(bs [][]byte) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

func sameSet(t *testing.T, got, want [][]byte) {
	t.Helper()
	g, w := sortedSet(got), sortedSet(want)
	if len(g) != len(w) {
		t.Fatalf("got %d blocks, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("block set mismatch at %d", i)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	_, _, wires, lvls := testBlocks(t, 24)
	putAll(t, s, wires, lvls)

	if s.Len() != len(wires) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(wires))
	}
	all, err := getAll(s, -1)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, all, wires)

	// Level filter: only level-0 blocks come back for maxLevel 0.
	l0, err := getAll(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i, w := range wires {
		if lvls[i] == 0 {
			want = append(want, w)
		}
	}
	sameSet(t, l0, want)

	// Stats: per-level tallies ascending, bytes accounted.
	st := s.Stats()
	if st.Blocks != len(wires) {
		t.Fatalf("Stats.Blocks = %d, want %d", st.Blocks, len(wires))
	}
	var totalBytes int64
	for _, w := range wires {
		totalBytes += int64(len(w))
	}
	if st.Bytes != totalBytes || s.Bytes() != totalBytes {
		t.Fatalf("Stats.Bytes = %d, Bytes() = %d, want %d", st.Bytes, s.Bytes(), totalBytes)
	}
	for i := 1; i < len(st.PerLevel); i++ {
		if st.PerLevel[i].Level <= st.PerLevel[i-1].Level {
			t.Fatalf("PerLevel not ascending: %+v", st.PerLevel)
		}
	}
}

func TestPutDeduplicates(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	_, _, wires, lvls := testBlocks(t, 8)
	putAll(t, s, wires, lvls)
	for i, w := range wires {
		stored, err := s.Put(core.ZeroObject, lvls[i], w)
		if err != nil {
			t.Fatal(err)
		}
		if stored {
			t.Fatalf("re-put %d stored a duplicate", i)
		}
	}
	if s.Len() != len(wires) {
		t.Fatalf("Len = %d after re-puts, want %d", s.Len(), len(wires))
	}
}

func TestConcurrentIdenticalPutsCoalesce(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	_, _, wires, lvls := testBlocks(t, 1)
	const G = 16
	stored := make([]bool, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ok, err := s.Put(core.ZeroObject, lvls[0], wires[0])
			if err != nil {
				t.Error(err)
			}
			stored[g] = ok
		}(g)
	}
	wg.Wait()
	n := 0
	for _, ok := range stored {
		if ok {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d of %d identical puts reported stored, want exactly 1", n, G)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestRestartRecoversBitExact(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	_, _, wires, lvls := testBlocks(t, 32)
	putAll(t, s, wires, lvls)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	s2 := openTest(t, dir, Options{Metrics: reg})
	all, err := getAll(s2, -1)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, all, wires)
	if got := reg.Snapshot(); countVal(t, got, "diskstore_recovered_blocks_total") != uint64(len(wires)) {
		t.Fatalf("recovered_blocks = %d, want %d", countVal(t, got, "diskstore_recovered_blocks_total"), len(wires))
	}
	// Dedup index must survive the restart: re-puts still coalesce.
	for i, w := range wires {
		if stored, err := s2.Put(core.ZeroObject, lvls[i], w); err != nil || stored {
			t.Fatalf("re-put %d after restart: stored=%v err=%v", i, stored, err)
		}
	}
}

func countVal(t *testing.T, snap metrics.Snapshot, name string) uint64 {
	t.Helper()
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func TestRotationSpillsToNewSegments(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 4 << 10})
	_, _, wires, lvls := testBlocks(t, 64)
	putAll(t, s, wires, lvls)
	if s.Segments() < 2 {
		t.Fatalf("Segments = %d after 64 puts with 4 KiB segments, want >= 2", s.Segments())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{SegmentBytes: 4 << 10})
	all, err := getAll(s2, -1)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, all, wires)
}

func TestRetentionExpiresSealedSegments(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s := openTest(t, dir, Options{
		SegmentBytes: 1 << 10,
		Retention:    50 * time.Millisecond,
		// A long check interval: the test drives enforcement directly so
		// it stays deterministic.
		RetentionCheck: time.Hour,
		Metrics:        reg,
	})
	_, _, wires, lvls := testBlocks(t, 96)
	putAll(t, s, wires, lvls)
	segsBefore, blocksBefore := s.Segments(), s.Len()
	if segsBefore < 3 {
		t.Fatalf("want >= 3 segments to exercise retention, got %d", segsBefore)
	}

	// Everything sealed is now "old": sealed segments are deleted, and
	// the aged-but-nonempty active is rotated behind a fresh one (its
	// blocks survive until a later pass).
	s.enforceRetention(time.Now().Add(time.Hour))
	if got := s.Segments(); got != 2 {
		t.Fatalf("Segments = %d after retention, want 2 (rotated-out active + fresh)", got)
	}
	if s.Len() >= blocksBefore {
		t.Fatalf("Len = %d after retention, want < %d", s.Len(), blocksBefore)
	}
	snap := reg.Snapshot()
	if countVal(t, snap, "diskstore_segments_deleted_total") != uint64(segsBefore-1) {
		t.Fatalf("segments_deleted = %d, want %d", countVal(t, snap, "diskstore_segments_deleted_total"), segsBefore-1)
	}
	if exp := countVal(t, snap, "diskstore_blocks_expired_total"); exp != uint64(blocksBefore-s.Len()) {
		t.Fatalf("blocks_expired = %d, want %d", exp, blocksBefore-s.Len())
	}

	// Gets serve the survivors; expired blocks can be re-put (their
	// dedup entries are gone) and the files are really deleted.
	got, err := getAll(s, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != s.Len() {
		t.Fatalf("Get returned %d blocks, Len is %d", len(got), s.Len())
	}
	names, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != s.Segments() {
		t.Fatalf("%d segment files on disk after retention, want %d", len(names), s.Segments())
	}
	surviving := make(map[string]bool)
	for _, b := range got {
		surviving[string(b)] = true
	}
	for i, w := range wires {
		if surviving[string(w)] {
			continue
		}
		stored, err := s.Put(core.ZeroObject, lvls[i], w)
		if err != nil || !stored {
			t.Fatalf("re-put of expired block %d: stored=%v err=%v", i, stored, err)
		}
		break
	}
}

func TestRetentionRotatesAgedActiveSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{
		Retention:      50 * time.Millisecond,
		RetentionCheck: time.Hour,
	})
	_, _, wires, lvls := testBlocks(t, 4)
	putAll(t, s, wires, lvls)
	if s.Segments() != 1 {
		t.Fatalf("Segments = %d, want 1", s.Segments())
	}
	// First pass: the active segment outlived the window, so it is
	// sealed (rotated) but its blocks still exist.
	s.enforceRetention(time.Now().Add(time.Hour))
	if s.Len() != len(wires) {
		t.Fatalf("Len = %d after rotation pass, want %d", s.Len(), len(wires))
	}
	// Second pass: now sealed and old, it expires.
	s.enforceRetention(time.Now().Add(2 * time.Hour))
	if s.Len() != 0 {
		t.Fatalf("Len = %d after expiry pass, want 0", s.Len())
	}
}

func TestMaxBlocksRejectsWithErrStoreFull(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{MaxBlocks: 4})
	_, _, wires, lvls := testBlocks(t, 5)
	putAll(t, s, wires[:4], lvls[:4])
	_, err := s.Put(core.ZeroObject, lvls[4], wires[4])
	if !errors.Is(err, store.ErrStoreFull) {
		t.Fatalf("err = %v, want ErrStoreFull", err)
	}
	if !errors.Is(err, store.ErrStoreUnavailable) {
		t.Fatalf("ErrStoreFull must also match ErrStoreUnavailable for fail-over, got %v", err)
	}
	// Duplicates of stored blocks are still accepted (idempotent retry).
	if stored, err := s.Put(core.ZeroObject, lvls[0], wires[0]); err != nil || stored {
		t.Fatalf("dup put on full store: stored=%v err=%v", stored, err)
	}
}

func TestFsyncModes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncBatch, FsyncAlways, FsyncNone} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, Options{Fsync: mode})
			_, _, wires, lvls := testBlocks(t, 12)
			putAll(t, s, wires, lvls)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := openTest(t, dir, Options{})
			all, err := getAll(s2, -1)
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, all, wires)
		})
	}
}

func TestCacheServesRepeatGets(t *testing.T) {
	reg := metrics.NewRegistry()
	s := openTest(t, t.TempDir(), Options{Metrics: reg})
	_, _, wires, lvls := testBlocks(t, 8)
	putAll(t, s, wires, lvls)
	if _, err := getAll(s, -1); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := countVal(t, reg.Snapshot(), "diskstore_cache_misses_total")
	if _, err := getAll(s, -1); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if hits := countVal(t, snap, "diskstore_cache_hits_total"); hits < uint64(len(wires)) {
		t.Fatalf("cache_hits = %d after second get, want >= %d", hits, len(wires))
	}
	if misses := countVal(t, snap, "diskstore_cache_misses_total"); misses != missesAfterFirst {
		t.Fatalf("second get missed the cache: %d -> %d misses", missesAfterFirst, misses)
	}
}

func TestSyncFlushesQueuedPuts(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncNone})
	_, _, wires, lvls := testBlocks(t, 8)
	putAll(t, s, wires, lvls)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// The data must be on disk now: read the segment file directly.
	names, _, err := listSegments(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("listSegments: %v (%d files)", err, len(names))
	}
	info, err := os.Stat(names[0])
	if err != nil {
		t.Fatal(err)
	}
	var want int64 = segHeaderLen
	for _, w := range wires {
		want += recHeaderLen + int64(len(w))
	}
	if info.Size() != want {
		t.Fatalf("segment file %d bytes after Sync, want %d", info.Size(), want)
	}
}

func TestPutAfterCloseFails(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	_, _, wires, lvls := testBlocks(t, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(core.ZeroObject, lvls[0], wires[0]); !errors.Is(err, store.ErrStoreUnavailable) {
		t.Fatalf("put after close: %v, want ErrStoreUnavailable", err)
	}
}

func TestOpenRejectsUnreadableDir(t *testing.T) {
	// A file where the dir should be: MkdirAll fails cleanly.
	dir := t.TempDir()
	path := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{Logf: quiet}); err == nil {
		t.Fatal("Open on a file path succeeded, want error")
	}
}

// TestSegmentFilesReplayableWithCoreUnmarshal pins the design promise
// that segment records are ordinary CodedBlock wire frames: a reader
// with nothing but the record framing and core.UnmarshalBinary can
// replay a segment.
func TestSegmentFilesReplayableWithCoreUnmarshal(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	_, _, wires, lvls := testBlocks(t, 6)
	putAll(t, s, wires, lvls)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, ids, err := listSegments(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("listSegments: %v (%d files)", err, len(names))
	}
	res, err := loadSegment(names[0], ids[0], store.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if res.tornBytes != 0 {
		t.Fatalf("clean segment reported %d torn bytes", res.tornBytes)
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.seg.recs {
		wire := raw[r.off+recHeaderLen : r.off+recHeaderLen+int64(r.n)]
		var b core.CodedBlock
		if err := b.UnmarshalBinary(wire); err != nil {
			t.Fatalf("record %d does not unmarshal as a CodedBlock: %v", i, err)
		}
		if b.Level != int(r.level) {
			t.Fatalf("record %d: indexed level %d, wire level %d", i, r.level, b.Level)
		}
	}
}

// TestGetDuringRetention pins that a Get racing segment expiry never
// fails — expired blocks simply drop out of the result.
func TestGetDuringRetention(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{
		SegmentBytes:   2 << 10,
		Retention:      time.Millisecond,
		RetentionCheck: time.Hour,
		CacheBytes:     -1, // force disk reads so the race is real
	})
	_, _, wires, lvls := testBlocks(t, 48)
	putAll(t, s, wires, lvls)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.enforceRetention(time.Now().Add(time.Hour))
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := getAll(s, -1); err != nil {
			t.Errorf("get during retention: %v", err)
		}
	}
	wg.Wait()
}

// TestTornTailTruncation corrupts the tail 5% of the last segment and
// verifies recovery truncates it, counts it, logs it, and keeps every
// record before the tear.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	_, _, wires, lvls := testBlocks(t, 40)
	putAll(t, s, wires, lvls)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	names, _, err := listSegments(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("listSegments: %v", err)
	}
	last := names[len(names)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	tear := len(raw) - len(raw)/20 // last 5%
	rng := rand.New(rand.NewSource(7))
	corrupted := append([]byte(nil), raw...)
	for i := tear; i < len(corrupted); i++ {
		corrupted[i] ^= byte(1 + rng.Intn(255))
	}
	if err := os.WriteFile(last, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	var logged []string
	s2 := openTest(t, dir, Options{
		Metrics: reg,
		Logf:    func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	})
	snap := reg.Snapshot()
	if countVal(t, snap, "diskstore_torn_tails_truncated_total") != 1 {
		t.Fatalf("torn_tails_truncated = %d, want 1", countVal(t, snap, "diskstore_torn_tails_truncated_total"))
	}
	if countVal(t, snap, "diskstore_torn_bytes_truncated_total") == 0 {
		t.Fatal("torn_bytes_truncated = 0, want > 0")
	}
	if len(logged) == 0 {
		t.Fatal("torn-tail truncation was not logged")
	}

	// Every surviving block is bit-identical to what was put, and the
	// survivors are exactly the records before the tear.
	got, err := getAll(s2, -1)
	if err != nil {
		t.Fatal(err)
	}
	putByBytes := make(map[string]bool, len(wires))
	for _, w := range wires {
		putByBytes[string(w)] = true
	}
	for _, b := range got {
		if !putByBytes[string(b)] {
			t.Fatal("recovered a block that was never put")
		}
	}
	if len(got) >= len(wires) || len(got) == 0 {
		t.Fatalf("recovered %d of %d blocks, want a non-empty strict subset", len(got), len(wires))
	}

	// The file really was truncated: a fresh scan is clean.
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() >= int64(len(raw)) {
		t.Fatalf("segment still %d bytes, want < %d", info.Size(), len(raw))
	}
	// Lost blocks can be re-put and the store keeps working.
	for i, w := range wires {
		if _, err := s2.Put(core.ZeroObject, lvls[i], w); err != nil {
			t.Fatalf("re-put %d after recovery: %v", i, err)
		}
	}
	all, err := getAll(s2, -1)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, all, wires)
	for _, b := range all {
		if !bytes.HasPrefix(b, []byte("PB")) {
			t.Fatal("recovered block lost its wire magic")
		}
	}
}

// keyedBlocks marshals n coded blocks stamped with obj (keyed wire
// versions v2/v4).
func keyedBlocks(t *testing.T, obj core.ObjectID, n int, seed int64) ([][]byte, []int) {
	t.Helper()
	levels, err := core.NewLevels(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 32)
		rng.Read(sources[i])
	}
	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, core.PriorityDistribution{0.4, 0.6}, n)
	if err != nil {
		t.Fatal(err)
	}
	wires := make([][]byte, len(blocks))
	lvls := make([]int, len(blocks))
	for i, b := range blocks {
		b.Object = obj
		w, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = w
		lvls[i] = b.Level
	}
	return wires, lvls
}

// TestKeyedRestartReplay pins the persistence half of the object
// namespace: two objects' keyed records survive a close/reopen with
// their namespaces intact — per-object reads, level filters and stats
// all rebuilt purely from the segment scan.
func TestKeyedRestartReplay(t *testing.T) {
	dir := t.TempDir()
	alpha := core.NamedObject("alpha")
	beta := core.NamedObject("beta")
	aw, al := keyedBlocks(t, alpha, 10, 1)
	bw, bl := keyedBlocks(t, beta, 14, 2)

	s := openTest(t, dir, Options{})
	for i, w := range aw {
		if _, err := s.Put(alpha, al[i], w); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range bw {
		if _, err := s.Put(beta, bl[i], w); err != nil {
			t.Fatal(err)
		}
	}
	// A legacy key-less block shares the store under the zero object.
	_, _, zw, zl := testBlocks(t, 3)
	for i, w := range zw {
		if _, err := s.Put(core.ZeroObject, zl[i], w); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	got, err := s2.Get(alpha, -1)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, aw)
	got, err = s2.Get(beta, -1)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, bw)
	got, err = s2.Get(core.ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, zw)
	all, err := getAll(s2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(aw)+len(bw)+len(zw) {
		t.Fatalf("per-object walk returned %d blocks, want %d", len(all), len(aw)+len(bw)+len(zw))
	}

	// Keyed level filter: alpha's critical prefix only.
	l0, err := s2.Get(alpha, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wantL0 [][]byte
	for i, w := range aw {
		if al[i] == 0 {
			wantL0 = append(wantL0, w)
		}
	}
	sameSet(t, l0, wantL0)

	st := s2.Stats()
	if len(st.PerObject) != 3 {
		t.Fatalf("replay rebuilt %d object namespaces, want 3: %+v", len(st.PerObject), st.PerObject)
	}
	byObj := map[core.ObjectID]store.ObjectStats{}
	var sum int
	for _, os := range st.PerObject {
		byObj[os.Object] = os
		sum += os.Blocks
	}
	if sum != st.Blocks {
		t.Fatalf("per-object blocks %d do not add up to total %d", sum, st.Blocks)
	}
	if byObj[alpha].Blocks != len(aw) || byObj[beta].Blocks != len(bw) || byObj[core.ZeroObject].Blocks != len(zw) {
		t.Fatalf("per-object counts drifted after replay: %+v", st.PerObject)
	}

	// Dedup survives the restart per namespace: re-putting alpha's first
	// block is a retry, not new data.
	if stored, err := s2.Put(alpha, al[0], aw[0]); err != nil || stored {
		t.Fatalf("re-put after replay: stored=%v err=%v", stored, err)
	}

	// The all-objects wildcard is reserved: no block is stored under it.
	if _, err := s2.Put(core.AllObjects, 0, aw[0]); !errors.Is(err, store.ErrBadRequest) {
		t.Fatalf("wildcard put err = %v, want ErrBadRequest", err)
	}
}

func TestSegmentInfos(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 1 << 10}) // force rotations
	_, _, wires, lvls := testBlocks(t, 24)
	putAll(t, s, wires, lvls)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	var lister store.SegmentLister = s // compile-time facet check
	infos := lister.SegmentInfos()
	if len(infos) < 2 {
		t.Fatalf("got %d segments, want >= 2 after rotation (SegmentBytes=1KiB, 24 blocks)", len(infos))
	}
	if len(infos) != s.Segments() {
		t.Fatalf("SegmentInfos has %d entries, Segments() says %d", len(infos), s.Segments())
	}
	records := 0
	for i, in := range infos {
		records += in.Records
		if i > 0 && infos[i-1].ID >= in.ID {
			t.Fatalf("segment ids not ascending: %d then %d", infos[i-1].ID, in.ID)
		}
		if wantActive := i == len(infos)-1; in.Active != wantActive {
			t.Errorf("segment %d active = %v, want %v", in.ID, in.Active, wantActive)
		}
		if in.Bytes <= 0 || in.Created.IsZero() {
			t.Errorf("segment %d: bytes %d, created %v — metadata missing", in.ID, in.Bytes, in.Created)
		}
	}
	if records != s.Len() {
		t.Fatalf("segment records sum to %d, store holds %d blocks", records, s.Len())
	}
}
