package store

import (
	"fmt"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/core"
)

// BlockStore is the storage engine behind a Server: it holds marshaled
// CodedBlocks (the core wire encoding, exactly as received) keyed by
// object and priority level, deduplicates identical blocks so client
// put-retries stay idempotent, and answers level-prefix reads. The
// Server owns the TCP surface; the engine owns placement — in memory
// (MemStore) or on disk (diskstore.Store).
//
// Implementations must be safe for concurrent use: the server calls
// into the engine from one goroutine per connection.
type BlockStore interface {
	// Put stores one block. wire is the block's core wire encoding; obj
	// and level are its object and priority level (already parsed from
	// wire by the caller — the zero object for legacy key-less frames).
	// It returns stored=false with a nil error when an identical block
	// was already present, and ErrStoreFull (possibly wrapped) when the
	// engine is at capacity. Implementations must not retain wire.
	Put(obj core.ObjectID, level int, wire []byte) (stored bool, err error)

	// Get returns the wire bytes of every stored block of obj with
	// level <= maxLevel; maxLevel < 0 returns every level. The blocks
	// come back in put order, answered from a per-object index: the cost
	// is that object's blocks, not the node's. The all-objects wildcard
	// is rejected with ErrBadRequest — a read names one object. An
	// object the engine does not hold is an empty result, but a closed
	// engine must answer ErrStoreUnavailable — "empty" would tell a
	// collector this owner holds nothing. The returned slices are
	// read-only and must not be modified by the caller.
	Get(obj core.ObjectID, maxLevel int) ([][]byte, error)

	// Delete removes every stored block of obj, returning how many were
	// dropped (0 with a nil error when the object is absent — deletes are
	// idempotent). The all-objects wildcard is rejected with ErrBadRequest:
	// reclamation is per object, wiping a node is Close-and-remove. The
	// migration mover issues Delete against old owners once a re-homed
	// object's new replica set verifies.
	Delete(obj core.ObjectID) (removed int, err error)

	// Stats returns an inventory snapshot: aggregate PerLevel sorted
	// ascending by level, plus PerObject sorted ascending by object ID.
	Stats() Stats

	// Len returns the number of stored blocks.
	Len() int

	// Bytes returns the total stored wire bytes.
	Bytes() int64

	// Close releases the engine's resources, flushing anything not yet
	// durable. The engine rejects operations after Close.
	Close() error
}

// objLevel keys the per-object per-level inventory.
type objLevel struct {
	obj   core.ObjectID
	level int
}

// storedBlock is one block held by MemStore.
type storedBlock struct {
	level int
	data  []byte // core wire format, exactly as received; shares its dedup key's storage
}

// MemStore is the RAM-only engine: the seed behavior of the store
// daemon, factored behind BlockStore. A restart loses everything; use
// diskstore.Store when blocks must outlive the process.
//
// Blocks live in one slice per object, in put order — the slice is both
// the storage and the read index, so a single-object Get touches that
// object's blocks only, however many other objects the node holds, and
// Delete drops one key.
type MemStore struct {
	maxBlocks int

	mu      sync.Mutex
	objects map[core.ObjectID][]storedBlock
	seen    map[string]struct{}
	tallies map[objLevel]levelTally
	blocks  int
	bytes   int64
	closed  bool
}

// NewMemStore returns an in-memory engine capping stored blocks at
// maxBlocks (0 = unlimited).
func NewMemStore(maxBlocks int) *MemStore {
	return &MemStore{
		maxBlocks: maxBlocks,
		objects:   make(map[core.ObjectID][]storedBlock),
		seen:      make(map[string]struct{}),
		tallies:   make(map[objLevel]levelTally),
	}
}

// Put stores one block, deduplicating identical bytes.
func (m *MemStore) Put(obj core.ObjectID, level int, wire []byte) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, fmt.Errorf("%w: engine closed", ErrStoreUnavailable)
	}
	if _, dup := m.seen[string(wire)]; dup {
		return false, nil
	}
	if m.maxBlocks > 0 && m.blocks >= m.maxBlocks {
		return false, fmt.Errorf("%w: %d blocks stored, cap %d", ErrStoreFull, m.blocks, m.maxBlocks)
	}
	// One copy of wire: the stored bytes are never written again (Get's
	// contract makes them read-only), so the data slice views the dedup
	// key's storage instead of duplicating it.
	key := string(wire)
	m.seen[key] = struct{}{}
	data := unsafe.Slice(unsafe.StringData(key), len(key))
	m.objects[obj] = append(m.objects[obj], storedBlock{level: level, data: data})
	k := objLevel{obj, level}
	tally := m.tallies[k]
	tally.count++
	tally.bytes += int64(len(wire))
	m.tallies[k] = tally
	m.blocks++
	m.bytes += int64(len(wire))
	return true, nil
}

// Get returns stored blocks of obj with level <= maxLevel (maxLevel < 0
// = all) in put order.
func (m *MemStore) Get(obj core.ObjectID, maxLevel int) ([][]byte, error) {
	if obj == core.AllObjects {
		return nil, fmt.Errorf("%w: get needs a concrete object", ErrBadRequest)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("%w: engine closed", ErrStoreUnavailable)
	}
	blocks := m.objects[obj]
	out := make([][]byte, 0, len(blocks))
	for _, sb := range blocks {
		if maxLevel < 0 || sb.level <= maxLevel {
			out = append(out, sb.data)
		}
	}
	return out, nil
}

// Delete removes every stored block of obj along with its dedup keys
// and tallies. Idempotent: deleting an absent object removes nothing.
func (m *MemStore) Delete(obj core.ObjectID) (int, error) {
	if obj == core.AllObjects {
		return 0, fmt.Errorf("%w: delete needs a concrete object", ErrBadRequest)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, fmt.Errorf("%w: engine closed", ErrStoreUnavailable)
	}
	blocks := m.objects[obj]
	for _, sb := range blocks {
		m.bytes -= int64(len(sb.data))
		// sb.data views its dedup key's storage (see Put), so the key is
		// that storage read back as a string, not a copy of it.
		delete(m.seen, unsafe.String(unsafe.SliceData(sb.data), len(sb.data)))
		delete(m.tallies, objLevel{obj, sb.level})
	}
	m.blocks -= len(blocks)
	delete(m.objects, obj)
	return len(blocks), nil
}

// Stats returns an inventory snapshot.
func (m *MemStore) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return statsFromTallies(m.blocks, m.tallies)
}

// Len returns the number of stored blocks.
func (m *MemStore) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.blocks
}

// Bytes returns the total stored wire bytes.
func (m *MemStore) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// Close marks the engine closed; stored blocks are dropped.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.objects, m.seen, m.tallies, m.blocks, m.bytes = nil, nil, nil, 0, 0
	return nil
}

// statsFromTallies assembles a Stats snapshot from per-object per-level
// tallies: the aggregate PerLevel sums over objects, and PerObject holds
// each object's own breakdown, both sorted ascending (the wire
// encoding's order).
func statsFromTallies(blocks int, tallies map[objLevel]levelTally) Stats {
	st := Stats{Blocks: blocks}
	agg := make(map[int]levelTally)
	perObj := make(map[core.ObjectID]map[int]levelTally)
	for k, tally := range tallies {
		st.Bytes += tally.bytes
		a := agg[k.level]
		a.count += tally.count
		a.bytes += tally.bytes
		agg[k.level] = a
		po := perObj[k.obj]
		if po == nil {
			po = make(map[int]levelTally)
			perObj[k.obj] = po
		}
		po[k.level] = tally
	}
	st.PerLevel = levelCounts(agg)
	for obj, po := range perObj {
		os := ObjectStats{Object: obj, PerLevel: levelCounts(po)}
		for _, lc := range os.PerLevel {
			os.Blocks += lc.Count
			os.Bytes += lc.Bytes
		}
		st.PerObject = append(st.PerObject, os)
	}
	sort.Slice(st.PerObject, func(i, j int) bool {
		return st.PerObject[i].Object < st.PerObject[j].Object
	})
	return st
}

// levelCounts flattens a per-level tally map, sorted ascending by level.
func levelCounts(perLevel map[int]levelTally) []LevelCount {
	out := make([]LevelCount, 0, len(perLevel))
	for lvl, tally := range perLevel {
		out = append(out, LevelCount{Level: lvl, Count: tally.count, Bytes: tally.bytes})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Level < out[j].Level })
	return out
}
