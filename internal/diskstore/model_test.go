package diskstore

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/store/enginetest"
)

// TestStoreMatchesScanModel drives the disk engine and the scan
// reference through the same seeded puts, duplicate puts and deletes —
// plus what only a log has: rotation, retention passing over the sealed
// segments, and close-and-reopen — comparing every read the engine
// offers after every step. byObj is kept at four sites (flush, replay,
// delete, expiry); a miss at any of them shows here as a block too many
// or too few.
func TestStoreMatchesScanModel(t *testing.T) {
	const levels = 3
	objs := []core.ObjectID{core.ZeroObject, 7, 8, core.NamedObject("model/a"), core.NamedObject("model/b")}
	opts := Options{
		Fsync:      FsyncNone,
		Retention:  time.Millisecond,
		CacheBytes: 1 << 10, // small enough to evict, so reads hit the files too
		Logf:       quiet,
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s, model := openTest(t, dir, opts), &enginetest.Model{}
		rotations, expiries, reopens := 0, 0, 0
		for step := 0; step < 300; step++ {
			switch p := rng.Intn(25); p {
			case 0:
				s.requestRotate()
				model.Seal()
				rotations++
			case 1:
				// Every sealed segment is older than the window: they go, and
				// the active one is sealed behind a fresh segment.
				s.enforceRetention(time.Now().Add(time.Hour))
				expiries += model.ExpireSealed()
				model.Seal()
			case 2:
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = openTest(t, dir, opts)
				reopens++
			default:
				enginetest.Mutate(t, rng, s, model, objs, levels)
			}
			enginetest.Check(t, s, model, objs, levels)
		}
		if s.Len() == 0 || rotations == 0 || expiries == 0 || reopens == 0 {
			t.Fatalf("seed %d: %d stored, %d rotations, %d blocks expired, %d reopens: the sequence skipped a case",
				seed, s.Len(), rotations, expiries, reopens)
		}
	}
}

// TestGetAfterCloseFails pins that a closed engine does not answer
// "empty" (every read handle is gone, and skipping unreadable records
// would report exactly that). A wildcard read stays refused as a bad
// request.
func TestGetAfterCloseFails(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncNone})
	_, _, wires, lvls := testBlocks(t, 8)
	putAll(t, s, wires, lvls)
	s.Close()
	if got, err := s.Get(core.ZeroObject, -1); !errors.Is(err, store.ErrStoreUnavailable) {
		t.Fatalf("Get on a closed engine = %d blocks, %v; want ErrStoreUnavailable", len(got), err)
	}
	// The wildcard is a bad request whatever the engine's state.
	if _, err := s.Get(core.AllObjects, -1); !errors.Is(err, store.ErrBadRequest) {
		t.Fatalf("Get(all objects) err = %v, want ErrBadRequest", err)
	}
}
