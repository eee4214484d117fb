package diskstore

import (
	"encoding/binary"
	"math/rand"
	"repro/internal/core"
	"sync"
	"testing"
	"time"
)

// fakeWire builds a distinct synthetic block wire frame: the engine
// only needs the "PB" magic and the BE level at bytes [3:5] (what the
// recovery scan re-checks), so tests that exercise concurrency rather
// than coding can skip the encoder.
func fakeWire(rng *rand.Rand, level, size int) []byte {
	w := make([]byte, size)
	rng.Read(w)
	w[0], w[1], w[2] = 'P', 'B', 1
	binary.BigEndian.PutUint16(w[3:5], uint16(level))
	return w
}

// TestConcurrentPutGetRotateRetention drives puts, gets, syncs and
// retention sweeps concurrently against tiny segments, then restarts to
// prove the surviving log is coherent. Run under -race (make check), it
// is the disk engine's concurrency gate: group-commit batching, segment
// rotation and window expiry all interleave here.
func TestConcurrentPutGetRotateRetention(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{
		SegmentBytes:   8 << 10,
		Retention:      30 * time.Millisecond,
		RetentionCheck: 10 * time.Millisecond,
		CacheBytes:     4 << 10, // small enough to force evictions
	})

	const (
		putters  = 8
		perPut   = 60
		readers  = 3
		syncOps  = 20
		sweeps   = 25
		wireSize = 192
	)
	var wg sync.WaitGroup
	for g := 0; g < putters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perPut; i++ {
				w := fakeWire(rng, g%3, wireSize)
				if _, err := s.Put(core.ZeroObject, g%3, w); err != nil {
					t.Errorf("putter %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := getAll(s, g-1); err != nil { // levels -1, 0, 1
					t.Errorf("reader %d: %v", g, err)
					return
				}
				s.Stats()
				s.Len()
				s.Segments()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < syncOps; i++ {
			if err := s.Sync(); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < sweeps; i++ {
			s.enforceRetention(time.Now())
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Whatever survived the churn must replay cleanly: a fresh open sees
	// no torn tails and a Get sees exactly Len blocks.
	s2 := openTest(t, dir, Options{})
	got, err := getAll(s2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != s2.Len() {
		t.Fatalf("Get returned %d blocks, Len is %d", len(got), s2.Len())
	}
	for _, w := range got {
		if len(w) != 192 || w[0] != 'P' || w[1] != 'B' {
			t.Fatal("replayed block lost its frame shape")
		}
	}
}

// TestConcurrentPutsDistinctAllStored pins that group commit never
// merges distinct blocks: every concurrent put of a unique block lands.
func TestConcurrentPutsDistinctAllStored(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	const G, N = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < N; i++ {
				stored, err := s.Put(core.ZeroObject, 0, fakeWire(rng, 0, 64))
				if err != nil {
					t.Errorf("putter %d: %v", g, err)
					return
				}
				if !stored {
					t.Errorf("putter %d: distinct block reported dedup", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != G*N {
		t.Fatalf("Len = %d, want %d", s.Len(), G*N)
	}
}

// TestCloseRacingPuts pins the shutdown contract: puts racing Close
// either complete durably or fail with the engine-closed error — no
// hangs, no lost acks.
func TestCloseRacingPuts(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	var wg sync.WaitGroup
	acked := make([][]byte, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + g)))
			w := fakeWire(rng, 0, 64)
			if stored, err := s.Put(core.ZeroObject, 0, w); err == nil && stored {
				acked[g] = w
			}
		}(g)
	}
	time.Sleep(time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	s2 := openTest(t, dir, Options{})
	got := make(map[string]bool)
	all, err := getAll(s2, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range all {
		got[string(b)] = true
	}
	for g, w := range acked {
		if w != nil && !got[string(w)] {
			t.Fatalf("put %d was acked before Close but missing after restart", g)
		}
	}
}
