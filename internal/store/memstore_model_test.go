package store_test

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/store/enginetest"
)

// modelObjects is the object population of the engine model tests: the
// legacy zero object, a handful of keyed ones, and few enough of either
// that deletes, re-puts and reads of an absent object all happen.
func modelObjects() []core.ObjectID {
	return []core.ObjectID{core.ZeroObject, 7, 8, core.NamedObject("model/a"), core.NamedObject("model/b")}
}

// TestMemStoreMatchesScanModel drives MemStore and the scan reference
// through the same seeded puts, duplicate puts and deletes, comparing
// every read the engine offers after every step: the per-object index
// must be invisible except in what a read costs.
func TestMemStoreMatchesScanModel(t *testing.T) {
	const levels = 3
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng, model, objs := store.NewMemStore(0), &enginetest.Model{}, modelObjects()
		for step := 0; step < 300; step++ {
			enginetest.Mutate(t, rng, eng, model, objs, levels)
			enginetest.Check(t, eng, model, objs, levels)
		}
		if eng.Len() == 0 {
			t.Fatalf("seed %d: the sequence left nothing stored", seed)
		}
	}
}

// TestMemStoreGetAfterCloseFails pins that a closed engine does not
// answer "empty": a collector would take that for an owner holding
// nothing. A wildcard read stays refused as a bad request.
func TestMemStoreGetAfterCloseFails(t *testing.T) {
	eng := store.NewMemStore(0)
	if _, err := eng.Put(7, 0, []byte("block")); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if got, err := eng.Get(7, -1); !errors.Is(err, store.ErrStoreUnavailable) {
		t.Fatalf("Get on a closed engine = %d blocks, %v; want ErrStoreUnavailable", len(got), err)
	}
	// The wildcard is a bad request whatever the engine's state.
	if _, err := eng.Get(core.AllObjects, -1); !errors.Is(err, store.ErrBadRequest) {
		t.Fatalf("Get(all objects) err = %v, want ErrBadRequest", err)
	}
}

// TestMemStorePutKeepsOneCopy pins the engine's memory per stored block:
// the data slice and the dedup key share one copy of the wire bytes (the
// caller's buffer is not retained, so one copy is the floor). Two copies
// would allocate twice the payload per put. It also checks the sharing is
// invisible: the caller may scribble on its buffer afterwards, dedup stays
// exact, and a delete frees the key for a re-put.
func TestMemStorePutKeepsOneCopy(t *testing.T) {
	const puts, size = 512, 4096
	eng := store.NewMemStore(0)
	wire := make([]byte, size)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < puts; i++ {
		binary.LittleEndian.PutUint32(wire, uint32(i))
		if stored, err := eng.Put(7, i%3, wire); err != nil || !stored {
			t.Fatalf("put %d: stored=%v err=%v", i, stored, err)
		}
	}
	runtime.ReadMemStats(&after)
	if perPut := float64(after.TotalAlloc-before.TotalAlloc) / puts; perPut > 1.5*size {
		t.Errorf("a put of %d bytes allocated %.0f bytes; want one copy, not two", size, perPut)
	}

	blocks, err := eng.Get(7, -1)
	if err != nil || len(blocks) != puts {
		t.Fatalf("Get = %d blocks, %v; want %d", len(blocks), err, puts)
	}
	for i, b := range blocks {
		if len(b) != size || binary.LittleEndian.Uint32(b) != uint32(i) {
			t.Fatalf("block %d came back changed after the caller reused its buffer", i)
		}
	}
	if stored, err := eng.Put(7, 0, blocks[3]); err != nil || stored {
		t.Fatalf("re-put of a stored block: stored=%v err=%v; want a dedup hit", stored, err)
	}
	again := append([]byte(nil), blocks[3]...)
	if n, err := eng.Delete(7); err != nil || n != puts {
		t.Fatalf("Delete = %d, %v; want %d", n, err, puts)
	}
	if stored, err := eng.Put(7, 0, again); err != nil || !stored {
		t.Fatalf("put after delete: stored=%v err=%v; want stored", stored, err)
	}
}

// TestMemStoreDeleteCopiesNothing pins the other end of that one copy:
// Delete finds each block's dedup key through the stored bytes, which
// view the key's storage, without building a string of them.
func TestMemStoreDeleteCopiesNothing(t *testing.T) {
	const puts, size = 512, 4096
	eng := store.NewMemStore(0)
	wire := make([]byte, size)
	for i := 0; i < puts; i++ {
		binary.LittleEndian.PutUint32(wire, uint32(i))
		if _, err := eng.Put(7, i%3, wire); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if n, err := eng.Delete(7); err != nil || n != puts {
		t.Fatalf("Delete = %d, %v; want %d", n, err, puts)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > size {
		t.Errorf("deleting %d blocks of %d bytes allocated %d bytes; want no copies", puts, size, got)
	}
	if stored, err := eng.Put(7, 0, wire); err != nil || !stored {
		t.Fatalf("put after delete: stored=%v err=%v; want stored", stored, err)
	}
}
