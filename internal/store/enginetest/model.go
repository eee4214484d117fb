// Package enginetest holds the reference model the storage engines are
// tested against: a flat list of blocks that answers every read by
// scanning all of it — what the engines did before they kept a
// per-object index, and the simplest thing that is obviously right.
// MemStore's and diskstore's model-based tests drive an engine and a
// Model through the same seeded sequence of operations and Check them
// against each other after every step.
package enginetest

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// Model is the scan reference. The zero value is an empty store.
type Model struct {
	blocks []block // put order
}

type block struct {
	obj    core.ObjectID
	level  int
	wire   []byte
	sealed bool // diskstore: sits in a sealed segment
}

// Put stores wire unless an identical block is present, like an engine.
func (m *Model) Put(obj core.ObjectID, level int, wire []byte) bool {
	for _, b := range m.blocks {
		if bytes.Equal(b.wire, wire) {
			return false
		}
	}
	m.blocks = append(m.blocks, block{obj: obj, level: level, wire: append([]byte(nil), wire...)})
	return true
}

// Get scans for the blocks of obj with level <= maxLevel (maxLevel < 0 =
// all), in put order.
func (m *Model) Get(obj core.ObjectID, maxLevel int) [][]byte {
	var out [][]byte
	for _, b := range m.blocks {
		if b.obj == obj && (maxLevel < 0 || b.level <= maxLevel) {
			out = append(out, b.wire)
		}
	}
	return out
}

// Delete drops every block of obj and reports how many there were.
func (m *Model) Delete(obj core.ObjectID) int {
	return m.drop(func(b block) bool { return b.obj == obj })
}

// Seal marks every block held now as sitting in a sealed segment (the
// disk engine rotated its active segment).
func (m *Model) Seal() {
	for i := range m.blocks {
		m.blocks[i].sealed = true
	}
}

// ExpireSealed drops the blocks of sealed segments (the disk engine's
// retention window passed over them).
func (m *Model) ExpireSealed() int {
	return m.drop(func(b block) bool { return b.sealed })
}

func (m *Model) drop(gone func(block) bool) int {
	kept := m.blocks[:0]
	for _, b := range m.blocks {
		if !gone(b) {
			kept = append(kept, b)
		}
	}
	removed := len(m.blocks) - len(kept)
	m.blocks = kept
	return removed
}

// Any returns a stored block picked by rng (ok = false when empty), for
// re-putting as a duplicate.
func (m *Model) Any(rng *rand.Rand) (obj core.ObjectID, level int, wire []byte, ok bool) {
	if len(m.blocks) == 0 {
		return 0, 0, nil, false
	}
	b := m.blocks[rng.Intn(len(m.blocks))]
	return b.obj, b.level, b.wire, true
}

// Stats tallies the inventory the way store.Stats reports it.
func (m *Model) Stats() store.Stats {
	st := store.Stats{Blocks: len(m.blocks)}
	perObj := map[core.ObjectID]*store.ObjectStats{}
	for _, b := range m.blocks {
		n := int64(len(b.wire))
		st.Bytes += n
		st.PerLevel = addLevel(st.PerLevel, b.level, n)
		os := perObj[b.obj]
		if os == nil {
			os = &store.ObjectStats{Object: b.obj}
			perObj[b.obj] = os
		}
		os.Blocks++
		os.Bytes += n
		os.PerLevel = addLevel(os.PerLevel, b.level, n)
	}
	for _, os := range perObj {
		st.PerObject = append(st.PerObject, *os)
	}
	sort.Slice(st.PerObject, func(i, j int) bool { return st.PerObject[i].Object < st.PerObject[j].Object })
	return st
}

// addLevel counts one block of n bytes into a level-sorted tally.
func addLevel(per []store.LevelCount, level int, n int64) []store.LevelCount {
	i := sort.Search(len(per), func(i int) bool { return per[i].Level >= level })
	if i == len(per) || per[i].Level != level {
		per = append(per, store.LevelCount{})
		copy(per[i+1:], per[i:])
		per[i] = store.LevelCount{Level: level}
	}
	per[i].Count++
	per[i].Bytes += n
	return per
}

// Wire marshals a small keyed block with random contents: real frames,
// because the disk engine re-derives object and level from them on
// replay.
func Wire(t testing.TB, rng *rand.Rand, obj core.ObjectID, level int) []byte {
	t.Helper()
	b := core.CodedBlock{Object: obj, Level: level, Coeff: make([]byte, 4), Payload: make([]byte, 8+rng.Intn(8))}
	rng.Read(b.Coeff)
	rng.Read(b.Payload)
	wire, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// Mutate applies one random put (fresh or duplicate) or delete to the
// engine and the model alike and checks that they answer it alike.
func Mutate(t testing.TB, rng *rand.Rand, eng store.BlockStore, m *Model, objs []core.ObjectID, levels int) {
	t.Helper()
	switch p := rng.Intn(10); {
	case p < 7:
		obj, level := objs[rng.Intn(len(objs))], rng.Intn(levels)
		put(t, eng, m, obj, level, Wire(t, rng, obj, level))
	case p < 8:
		if obj, level, wire, ok := m.Any(rng); ok {
			put(t, eng, m, obj, level, wire)
		}
	default:
		obj := objs[rng.Intn(len(objs))]
		removed, err := eng.Delete(obj)
		if want := m.Delete(obj); err != nil || removed != want {
			t.Fatalf("Delete(%s) = %d, %v; model removed %d", obj, removed, err, want)
		}
	}
}

func put(t testing.TB, eng store.BlockStore, m *Model, obj core.ObjectID, level int, wire []byte) {
	t.Helper()
	stored, err := eng.Put(obj, level, wire)
	if want := m.Put(obj, level, wire); err != nil || stored != want {
		t.Fatalf("Put(%s, level %d) = %v, %v; model stored = %v", obj, level, stored, err, want)
	}
}

// Check compares everything an engine can be asked with the model's
// answer: each object in objs (one of which should be absent now and
// then) at every level bound, byte for byte and in put order; Len, Bytes
// and Stats. A read of the all-objects wildcard must be refused.
func Check(t testing.TB, eng store.BlockStore, m *Model, objs []core.ObjectID, levels int) {
	t.Helper()
	for maxLevel := -1; maxLevel < levels; maxLevel++ {
		for _, obj := range objs {
			got, err := eng.Get(obj, maxLevel)
			if err != nil {
				t.Fatalf("Get(%s, %d): %v", obj, maxLevel, err)
			}
			if want := m.Get(obj, maxLevel); !sameOrder(got, want) {
				t.Fatalf("Get(%s, %d) returned %d blocks, model %d, or in another order", obj, maxLevel, len(got), len(want))
			}
		}
	}
	if _, err := eng.Get(core.AllObjects, -1); !errors.Is(err, store.ErrBadRequest) {
		t.Fatalf("Get(all objects) err = %v, want ErrBadRequest", err)
	}
	want := m.Stats()
	if eng.Len() != want.Blocks || eng.Bytes() != want.Bytes {
		t.Fatalf("Len %d Bytes %d, model %d / %d", eng.Len(), eng.Bytes(), want.Blocks, want.Bytes)
	}
	if got := eng.Stats(); !sameStats(got, want) {
		t.Fatalf("Stats:\n got  %+v\n want %+v", got, want)
	}
}

func sameOrder(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameLevels(a, b []store.LevelCount) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameStats compares two snapshots field by field (nil and empty lists
// are the same inventory).
func sameStats(a, b store.Stats) bool {
	if a.Blocks != b.Blocks || a.Bytes != b.Bytes || !sameLevels(a.PerLevel, b.PerLevel) || len(a.PerObject) != len(b.PerObject) {
		return false
	}
	for i := range a.PerObject {
		x, y := a.PerObject[i], b.PerObject[i]
		if x.Object != y.Object || x.Blocks != y.Blocks || x.Bytes != y.Bytes || !sameLevels(x.PerLevel, y.PerLevel) {
			return false
		}
	}
	return true
}
