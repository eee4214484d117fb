package store

import (
	"fmt"
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

// BatchPutter is the optional BlockStore facet behind the multi-block
// put: an engine that commits several blocks more cheaply together than
// one by one (diskstore: one group commit, one fsync) takes a frame's
// blocks in one call. The server finds it by type assertion and falls
// back to one Put per block, so an engine wrapper that embeds BlockStore
// keeps seeing every block.
type BatchPutter interface {
	// PutBatch stores every entry with Put's semantics and fills in each
	// one's Stored and Err. It must not retain any Wire.
	PutBatch(puts []BatchPut)
}

// BatchPut is one entry of a PutBatch: Put's arguments, then its results.
type BatchPut struct {
	Obj    core.ObjectID
	Level  int
	Wire   []byte
	Stored bool
	Err    error
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
	inv     Inventory
	closed  bool
}

// NewMemStore returns an in-memory engine capping stored blocks at
// maxBlocks (0 = unlimited).
func NewMemStore(maxBlocks int) *MemStore {
	return &MemStore{
		maxBlocks: maxBlocks,
		objects:   make(map[core.ObjectID][]storedBlock),
		seen:      make(map[string]struct{}),
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
	if m.maxBlocks > 0 && m.inv.Blocks() >= m.maxBlocks {
		return false, fmt.Errorf("%w: %d blocks stored, cap %d", ErrStoreFull, m.inv.Blocks(), m.maxBlocks)
	}
	// One copy of wire: the stored bytes are never written again (Get's
	// contract makes them read-only), so the data slice views the dedup
	// key's storage instead of duplicating it.
	key := string(wire)
	m.seen[key] = struct{}{}
	data := unsafe.Slice(unsafe.StringData(key), len(key))
	m.objects[obj] = append(m.objects[obj], storedBlock{level: level, data: data})
	m.inv.Add(obj, level, len(wire))
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
		// sb.data views its dedup key's storage (see Put), so the key is
		// that storage read back as a string, not a copy of it.
		delete(m.seen, unsafe.String(unsafe.SliceData(sb.data), len(sb.data)))
		m.inv.Remove(obj, sb.level, len(sb.data))
	}
	delete(m.objects, obj)
	return len(blocks), nil
}

// Stats returns an inventory snapshot.
func (m *MemStore) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inv.Stats()
}

// Len returns the number of stored blocks.
func (m *MemStore) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inv.Blocks()
}

// Bytes returns the total stored wire bytes.
func (m *MemStore) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inv.Bytes()
}

// Close marks the engine closed; stored blocks are dropped.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.objects, m.seen, m.inv = nil, nil, Inventory{}
	return nil
}
