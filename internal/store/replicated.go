package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
)

// ReplicatedConfig parameterizes a Replicated store.
type ReplicatedConfig struct {
	// Tolerance is f, the number of simultaneous replica losses the
	// least-important level must survive: the last level is stored on
	// f+1 replicas. Default 1.
	Tolerance int
	// MinWrites is how many copies must land for Put to succeed; the
	// remainder is best-effort, absorbed by retries and later repair.
	// Default 1.
	MinWrites int
	// Metrics, when non-nil, receives fan-out and per-replica outcome
	// counters (see DESIGN.md §10).
	Metrics *metrics.Registry
	// ReplicaLabels, when set (length must match the client count), labels
	// each replica's metric series {node="<label>"} instead of the default
	// positional {replica="<i>"}. The placement layer passes node
	// addresses here so per-shard series stay meaningful as membership
	// shifts replicas between shards.
	ReplicaLabels []string
}

// Replicated fans one logical store out over several servers with a
// priority-differentiated replication factor: level 0 (most important)
// goes to every replica, the last level to Tolerance+1, intermediate
// levels linearly in between. This is the paper's priority semantics at
// the storage layer — the critical prefix survives more node losses.
type Replicated struct {
	clients []*Client
	levels  int
	cfg     ReplicatedConfig
	met     replicatedMetrics
	next    atomic.Uint64
	// wireHash keys collect's dedup. Only speed rides on its quality —
	// wireSet compares bytes on every hit — so tests swap in a constant
	// one to force collisions.
	wireHash func([]byte) uint64
}

// NewReplicated builds a replicated store over the given clients for a
// code with `levels` priority levels.
func NewReplicated(clients []*Client, levels int, cfg ReplicatedConfig) (*Replicated, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("store: replicated store needs at least one client")
	}
	if levels <= 0 {
		return nil, fmt.Errorf("store: replicated store needs at least one level, got %d", levels)
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 1
	}
	if cfg.MinWrites <= 0 {
		cfg.MinWrites = 1
	}
	if cfg.MinWrites > len(clients) {
		return nil, fmt.Errorf("store: MinWrites %d exceeds %d replicas", cfg.MinWrites, len(clients))
	}
	if cfg.ReplicaLabels != nil && len(cfg.ReplicaLabels) != len(clients) {
		return nil, fmt.Errorf("store: %d replica labels for %d clients", len(cfg.ReplicaLabels), len(clients))
	}
	seed := maphash.MakeSeed()
	return &Replicated{
		clients:  append([]*Client(nil), clients...),
		levels:   levels,
		cfg:      cfg,
		met:      newReplicatedMetrics(cfg.Metrics, len(clients), cfg.ReplicaLabels),
		wireHash: func(wire []byte) uint64 { return maphash.Bytes(seed, wire) },
	}, nil
}

// Clients returns the per-replica clients as a fresh slice — mutating it
// cannot reorder or swap the store's own replica set (the elements still
// point at the live clients; replica membership itself is immutable here).
func (r *Replicated) Clients() []*Client {
	return append([]*Client(nil), r.clients...)
}

// Levels returns the number of priority levels the store was built for.
func (r *Replicated) Levels() int { return r.levels }

// ReplicaLabels returns the replica labels as a fresh slice — for a
// placement shard, the node addresses in successor order. Nil when the
// store was built without labels (positional replicas).
func (r *Replicated) ReplicaLabels() []string {
	if r.cfg.ReplicaLabels == nil {
		return nil
	}
	return append([]string(nil), r.cfg.ReplicaLabels...)
}

// Close closes every client.
func (r *Replicated) Close() error {
	for _, c := range r.clients {
		c.Close()
	}
	return nil
}

// ReplicasFor returns the replication factor of a priority level:
// linear interpolation from all replicas at level 0 down to
// Tolerance+1 at the last level, clamped to [1, len(clients)].
func (r *Replicated) ReplicasFor(level int) int {
	n := len(r.clients)
	floor := r.cfg.Tolerance + 1
	if floor > n {
		floor = n
	}
	if level <= 0 || r.levels <= 1 || n == floor {
		return n
	}
	if level >= r.levels-1 {
		return floor
	}
	rf := n - int(math.Round(float64(level*(n-floor))/float64(r.levels-1)))
	if rf < floor {
		rf = floor
	}
	if rf > n {
		rf = n
	}
	return rf
}

// Put stores one block on ReplicasFor(b.Level) replicas, chosen by a
// rotating window so load spreads evenly. Writes are sequential and the
// call succeeds once MinWrites copies landed; per-replica failures
// beyond that are absorbed (retries already ran inside each client).
// When the window itself cannot supply MinWrites copies, Put fails over
// to the remaining replicas rather than failing the write — an outage
// only surfaces to the caller once fewer than MinWrites replicas in the
// whole fleet accept the block.
func (r *Replicated) Put(ctx context.Context, b *core.CodedBlock) error {
	return r.PutPreferring(ctx, b, nil)
}

// PutPreferring stores one block like Put but tries the given replica
// indices first, in order, before falling back to the rotating window.
// Out-of-range and duplicate indices are ignored. The repair daemon uses
// it to steer regenerated blocks onto the replicas its audit found
// under-provisioned, instead of re-crowding the healthy ones.
func (r *Replicated) PutPreferring(ctx context.Context, b *core.CodedBlock, prefer []int) error {
	if b == nil {
		return fmt.Errorf("%w: nil block", ErrBadRequest)
	}
	targets := r.ReplicasFor(b.Level)
	start := int((r.next.Add(1) - 1) % uint64(len(r.clients)))
	order := make([]int, 0, len(r.clients))
	taken := make([]bool, len(r.clients))
	for _, i := range prefer {
		if i >= 0 && i < len(r.clients) && !taken[i] {
			taken[i] = true
			order = append(order, i)
		}
	}
	for i := 0; i < len(r.clients); i++ {
		if j := (start + i) % len(r.clients); !taken[j] {
			taken[j] = true
			order = append(order, j)
		}
	}
	r.met.puts.Inc()
	stored := 0
	var errs []error
	for n, idx := range order {
		// The first `targets` replicas are the level's provisioned
		// window; the rest are failover-only, tried while the durability
		// floor is unmet — so a put survives any outage that leaves
		// MinWrites replicas reachable, and the repair daemon later
		// migrates the copies back onto the window.
		if n >= targets && stored >= r.cfg.MinWrites {
			break
		}
		err := r.clients[idx].Put(ctx, b)
		r.met.perReplica[idx].put(err)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			errs = append(errs, err)
			continue
		}
		stored++
	}
	if stored >= r.cfg.MinWrites {
		return nil
	}
	r.met.putErrors.Inc()
	return fmt.Errorf("store: put level %d stored %d/%d copies (want >= %d): %w",
		b.Level, stored, targets, r.cfg.MinWrites, errors.Join(append([]error{ErrStoreUnavailable}, errs...)...))
}

// PutAll stores blocks in order, returning how many succeeded and the
// first error.
func (r *Replicated) PutAll(ctx context.Context, blocks []*core.CodedBlock) (int, error) {
	for i, b := range blocks {
		if err := r.Put(ctx, b); err != nil {
			return i, err
		}
	}
	return len(blocks), nil
}

// StatAll fetches every replica's inventory snapshot concurrently. The
// two slices are indexed by replica: errs[i] is non-nil (and stats[i]
// zero) where a replica was unreachable. Unlike CollectObject, reaching zero
// replicas is not an error here — an audit of a fully dark fleet is
// still an audit; callers decide how much reachability they need.
func (r *Replicated) StatAll(ctx context.Context) ([]Stats, []error) {
	stats := make([]Stats, len(r.clients))
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, cl := range r.clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			stats[i], errs[i] = cl.Stat(ctx)
			r.met.perReplica[i].stat(errs[i])
		}(i, cl)
	}
	wg.Wait()
	return stats, errs
}

// CollectObject fetches one object's blocks with Level <= maxLevel
// (maxLevel < 0 for all) from every replica concurrently, deduplicates
// the replicated copies, and returns the union. It fails only when every
// replica fails. Copies of a block are recognized by the bytes they
// arrived as (wireSet), never by marshalling them again. Dedup spares
// the decoder non-innovative adds; nothing depends on it for
// correctness, and it never merges two blocks that differ.
func (r *Replicated) CollectObject(ctx context.Context, obj core.ObjectID, maxLevel int) ([]*core.CodedBlock, error) {
	perReplica := make([][]wireBlock, len(r.clients))
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, cl := range r.clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			perReplica[i], errs[i] = cl.getList(ctx, obj, maxLevel)
			r.met.perReplica[i].get(errs[i])
		}(i, cl)
	}
	wg.Wait()
	r.met.collects.Inc()
	ok := 0
	for _, err := range errs {
		if err == nil {
			ok++
		}
	}
	if ok == 0 {
		r.met.collectErrors.Inc()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("store: collect: all %d replicas failed: %w",
			len(r.clients), errors.Join(append([]error{ErrStoreUnavailable}, errs...)...))
	}
	out := r.mergeCopies(perReplica)
	r.met.collectBlocks.Add(uint64(len(out)))
	return out, nil
}

// mergeCopies is the union of the replicas' answers (a failed replica's
// is nil), first copy of each block kept, replica order then response
// order. The returned blocks point into the lists.
func (r *Replicated) mergeCopies(perReplica [][]wireBlock) []*core.CodedBlock {
	fetched := 0
	for _, list := range perReplica {
		fetched += len(list)
	}
	seen := wireSet{hash: r.wireHash, first: make(map[uint64][]byte, fetched)}
	out := make([]*core.CodedBlock, 0, fetched)
	for _, list := range perReplica {
		for i := range list {
			if !seen.add(list[i].wire) {
				r.met.collectDups.Inc()
				continue
			}
			out = append(out, &list[i].CodedBlock)
		}
	}
	return out
}

// wireSet is an exact set of wire encodings keyed by a 64-bit hash. The
// hash only finds the candidate; membership is decided by comparing
// bytes, so a collision costs a scan of the (normally empty) spill list,
// never a lost block.
type wireSet struct {
	hash  func([]byte) uint64
	first map[uint64][]byte // the first encoding seen under each hash
	spill [][]byte          // encodings whose hash another one had taken
}

// add inserts wire and reports whether it was new.
func (s *wireSet) add(wire []byte) bool {
	h := s.hash(wire)
	prev, taken := s.first[h]
	if !taken {
		s.first[h] = wire
		return true
	}
	if bytes.Equal(prev, wire) {
		return false
	}
	for _, other := range s.spill {
		if bytes.Equal(other, wire) {
			return false
		}
	}
	s.spill = append(s.spill, wire)
	return true
}
