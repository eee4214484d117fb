package store_test

import (
	"errors"
	"math/rand"
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
// nothing.
func TestMemStoreGetAfterCloseFails(t *testing.T) {
	eng := store.NewMemStore(0)
	if _, err := eng.Put(7, 0, []byte("block")); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	for _, obj := range []core.ObjectID{7, core.AllObjects} {
		if got, err := eng.Get(obj, -1); !errors.Is(err, store.ErrStoreUnavailable) {
			t.Fatalf("Get(%s) on a closed engine = %d blocks, %v; want ErrStoreUnavailable", obj, len(got), err)
		}
	}
}
