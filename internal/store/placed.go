package store

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Placed is the object-keyed front end of the store fleet: instead of
// one static replica list for everything (Replicated), each object's
// replica set is resolved by consistent hashing over a chord ring —
// the object ID's successor list of R alive nodes, the decentralized
// placement of Dimakis et al. Within a shard the priority-differentiated
// replication factor applies unchanged: the critical level lands on all
// R shard members, the last level on Tolerance+1 of them.
//
// Membership is dynamic. A failure detector (internal/gossip.Monitor,
// whose Prober interface Placed itself satisfies via ping) reports
// transitions; SetAlive/Join/Leave move nodes in and out of the ring,
// and subsequent placement follows. Placement is deterministic: node IDs
// are hashes of addresses, so the same membership sequence yields the
// same object → replica assignment in every run.
//
// All methods are safe for concurrent use.
type Placed struct {
	levels int
	cfg    PlacedConfig
	met    placedMetrics

	mu      sync.RWMutex
	ring    *chord.Ring
	byAddr  map[string]int // addr → ring node index
	addrOf  []string       // ring node index → addr
	clients []*Client      // ring node index → client
	shards  map[core.ObjectID]*Replicated
	hook    func() // see SetMembershipHook
	closed  bool
}

// PlacedConfig parameterizes a Placed store.
type PlacedConfig struct {
	// Replication is R, the successor-list size each object is spread
	// over. Default 3, clamped to the fleet size at lookup time.
	Replication int
	// Tolerance configures each object's shard exactly like
	// ReplicatedConfig.
	Tolerance int
	// NewClient dials a client for a node joining after construction.
	// Default: NewClient(ClientConfig{Addr: addr}).
	NewClient func(addr string) (*Client, error)
	// Metrics, when non-nil, receives placement counters plus each
	// shard's per-node outcome series {node="addr"}.
	Metrics *metrics.Registry
}

// NodeID maps a node address onto the ring — FNV-64a through the ring
// finalizer, the same hash-of-address model NewRandom simulates.
// Exported so tools and tests can predict ownership.
func NodeID(addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return ringMix(h.Sum64())
}

// ringMix finalizes a raw 64-bit identity into a ring position. FNV-64a
// — behind both object IDs and node addresses — barely avalanches its
// last input byte: names or addresses that differ only in a trailing
// character ("load/3" vs "load/4", sequential ports) land within a
// sliver of the ring, collapsing whole workloads onto one successor
// list and starving every other arc. A splitmix64 finalizer spreads
// them uniformly. Ring positions are recomputed from addresses and
// object IDs on every boot, so remixing costs nothing in compatibility:
// nothing on disk or on the wire stores a ring position.
func ringMix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// ringKey is an object's ring position: its ID through the same
// finalizer the nodes use.
func ringKey(obj core.ObjectID) uint64 { return ringMix(uint64(obj)) }

// NewPlaced builds the placement layer over the given clients (one per
// storage node, all initially alive) for a code with `levels` priority
// levels.
func NewPlaced(clients []*Client, levels int, cfg PlacedConfig) (*Placed, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("store: placed store needs at least one client")
	}
	if levels <= 0 {
		return nil, fmt.Errorf("store: placed store needs at least one level, got %d", levels)
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 3
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 1
	}
	if cfg.NewClient == nil {
		cfg.NewClient = func(addr string) (*Client, error) {
			return NewClient(ClientConfig{Addr: addr})
		}
	}
	p := &Placed{
		levels:  levels,
		cfg:     cfg,
		met:     newPlacedMetrics(cfg.Metrics),
		byAddr:  make(map[string]int, len(clients)),
		shards:  make(map[core.ObjectID]*Replicated),
		clients: append([]*Client(nil), clients...),
	}
	ids := make([]uint64, len(clients))
	for i, cl := range clients {
		addr := cl.Addr()
		if _, dup := p.byAddr[addr]; dup {
			return nil, fmt.Errorf("store: duplicate node address %q", addr)
		}
		p.byAddr[addr] = i
		p.addrOf = append(p.addrOf, addr)
		ids[i] = NodeID(addr)
	}
	ring, err := chord.New(ids)
	if err != nil {
		return nil, fmt.Errorf("store: placement ring: %w", err)
	}
	p.ring = ring
	p.met.nodes.Set(int64(len(clients)))
	return p, nil
}

// Levels returns the number of priority levels the store was built for.
func (p *Placed) Levels() int { return p.levels }

// Close closes every node client.
func (p *Placed) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, cl := range p.clients {
		cl.Close()
	}
	p.shards = map[core.ObjectID]*Replicated{}
	return nil
}

// SetAlive moves a known node in or out of placement — the hook a
// membership monitor drives: suspect/dead → false, alive/heal → true.
// Unknown addresses are an error (Join adds new ones).
func (p *Placed) SetAlive(addr string, alive bool) error {
	p.mu.Lock()
	idx, ok := p.byAddr[addr]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("store: unknown placement node %q", addr)
	}
	if p.ring.Alive(idx) == alive {
		p.mu.Unlock()
		return nil
	}
	if alive {
		p.reviveLocked(idx)
	} else {
		p.ring.Fail(idx)
	}
	p.ring.Stabilize()
	p.invalidateLocked()
	p.met.membershipEvents.Inc()
	p.mu.Unlock()
	p.notifyMembership()
	return nil
}

// Join adds a brand-new node to the ring (dialing it via the configured
// client factory), or revives a known one like SetAlive(addr, true).
func (p *Placed) Join(addr string) error {
	p.mu.Lock()
	if idx, known := p.byAddr[addr]; known {
		if p.ring.Alive(idx) {
			p.mu.Unlock()
			return nil
		}
		p.reviveLocked(idx)
		p.ring.Stabilize()
		p.invalidateLocked()
		p.met.membershipEvents.Inc()
		p.mu.Unlock()
		p.notifyMembership()
		return nil
	}
	if p.closed {
		p.mu.Unlock()
		return ErrClientClosed
	}
	factory := p.cfg.NewClient
	p.mu.Unlock()
	// Dial outside the lock; a slow handshake must not stall placement.
	cl, err := factory(addr)
	if err != nil {
		return fmt.Errorf("store: join %s: %w", addr, err)
	}
	p.mu.Lock()
	if _, raced := p.byAddr[addr]; raced || p.closed {
		closed := p.closed
		p.mu.Unlock()
		cl.Close() // someone else joined it meanwhile, or we shut down
		if closed {
			return ErrClientClosed
		}
		return nil
	}
	idx, err := p.ring.Join(NodeID(addr))
	if err != nil {
		p.mu.Unlock()
		cl.Close()
		return fmt.Errorf("store: join %s: %w", addr, err)
	}
	if idx != len(p.clients) {
		p.mu.Unlock()
		cl.Close()
		return fmt.Errorf("store: ring index %d out of step with %d clients", idx, len(p.clients))
	}
	p.byAddr[addr] = idx
	p.addrOf = append(p.addrOf, addr)
	p.clients = append(p.clients, cl)
	p.invalidateLocked()
	p.met.membershipEvents.Inc()
	p.met.nodes.Set(int64(len(p.clients)))
	p.mu.Unlock()
	p.notifyMembership()
	return nil
}

// reviveLocked puts a known node back on the ring. What answers at its
// address now may not be the process its pooled connections were dialed
// to, so they are dropped rather than discovered dead one op at a time.
func (p *Placed) reviveLocked(idx int) {
	p.ring.Recover(idx)
	p.clients[idx].dropIdle()
}

// Leave removes a node from placement (it stays known, so a later Join
// revives it without redialing).
func (p *Placed) Leave(addr string) error { return p.SetAlive(addr, false) }

// invalidateLocked invalidates ONLY the cached shards whose successor list
// actually changed — an event on the far side of the ring must not
// cold-start every shard (and its {node="addr"} metric series) on this
// one. It runs under the write lock, so Shard never sees a stale entry.
func (p *Placed) invalidateLocked() {
	for obj, repl := range p.shards {
		old := repl.clients
		idxs, err := p.ring.Successors(ringKey(obj), p.cfg.Replication)
		if err != nil {
			// No alive successor remains: the shard is unplaceable.
			delete(p.shards, obj)
			continue
		}
		same := len(idxs) == len(old)
		for i, idx := range idxs {
			if same && p.clients[idx] != old[i] {
				same = false
			}
		}
		if !same {
			delete(p.shards, obj)
		}
	}
}

// notifyMembership fires the membership hook outside the lock.
func (p *Placed) notifyMembership() {
	p.mu.RLock()
	hook := p.hook
	p.mu.RUnlock()
	if hook != nil {
		hook()
	}
}

// SetMembershipHook installs (or replaces) the callback fired
// synchronously after every membership event (join, leave, liveness
// flip), outside the placement lock; it may call back into Placed. The
// migration mover hangs its Kick here to re-home data the moment
// placement shifts — it diffs ownership itself, from every node's
// Stats().PerObject inventory. The mover is built over an existing
// Placed, so the hook cannot exist before the store does.
func (p *Placed) SetMembershipHook(hook func()) {
	p.mu.Lock()
	p.hook = hook
	p.mu.Unlock()
}

// Probe pings one node — exactly the gossip.Prober contract, so a
// Monitor can probe through the store's own wire path and connection
// pools without the gossip package importing store.
func (p *Placed) Probe(ctx context.Context, addr string) error {
	p.mu.RLock()
	idx, ok := p.byAddr[addr]
	if !ok {
		p.mu.RUnlock()
		return fmt.Errorf("store: unknown placement node %q", addr)
	}
	cl := p.clients[idx]
	p.mu.RUnlock()
	return cl.Ping(ctx)
}

// Shard resolves the object's replica set and returns a Replicated store
// over exactly those nodes: level 0 on all of them, the last level on
// Tolerance+1 — the per-shard form of the fleet-wide wiring Replicated
// used to be. Shards are cached until membership changes, so repeated
// operations on one object reuse the same fan-out (and the same
// {node="addr"} metric series). Callers must not Close the shard; its
// clients belong to Placed.
func (p *Placed) Shard(obj core.ObjectID) (*Replicated, error) {
	if obj == core.AllObjects {
		return nil, fmt.Errorf("%w: the all-objects wildcard has no shard", ErrBadRequest)
	}
	p.mu.RLock()
	if repl, hit := p.shards[obj]; hit {
		p.mu.RUnlock()
		return repl, nil
	}
	p.mu.RUnlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClientClosed
	}
	if repl, hit := p.shards[obj]; hit {
		return repl, nil
	}
	idxs, err := p.ring.Successors(ringKey(obj), p.cfg.Replication)
	if err != nil {
		return nil, fmt.Errorf("store: place %s: %w", obj, err)
	}
	clients := make([]*Client, len(idxs))
	for i, idx := range idxs {
		clients[i] = p.clients[idx]
	}
	repl, err := NewReplicated(clients, p.levels, ReplicatedConfig{
		Tolerance: p.cfg.Tolerance,
		Metrics:   p.cfg.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("store: shard %s: %w", obj, err)
	}
	p.shards[obj] = repl
	return repl, nil
}

// ReplicasForObject returns the addresses currently hosting obj, nearest
// successor first — the assignment Shard fans out over.
func (p *Placed) ReplicasForObject(obj core.ObjectID) ([]string, error) {
	repl, err := p.Shard(obj)
	if err != nil {
		return nil, err
	}
	return repl.ReplicaLabels(), nil
}

// Put routes one block to its object's shard.
func (p *Placed) Put(ctx context.Context, b *core.CodedBlock) error {
	if b == nil {
		return fmt.Errorf("%w: nil block", ErrBadRequest)
	}
	repl, err := p.Shard(b.Object)
	if err != nil {
		return err
	}
	p.met.puts.Inc()
	return repl.Put(ctx, b)
}

// PutAll stores blocks on their objects' shards, each object's blocks
// together through Replicated.PutAll — one multi-block put per owner —
// objects in the order they first appear. It returns how many landed and
// stops at the first object with an error.
func (p *Placed) PutAll(ctx context.Context, blocks []*core.CodedBlock) (int, error) {
	var objs []core.ObjectID
	byObj := make(map[core.ObjectID][]*core.CodedBlock)
	for _, b := range blocks {
		if b == nil {
			return 0, fmt.Errorf("%w: nil block", ErrBadRequest)
		}
		if _, seen := byObj[b.Object]; !seen {
			objs = append(objs, b.Object)
		}
		byObj[b.Object] = append(byObj[b.Object], b)
	}
	n := 0
	for _, obj := range objs {
		repl, err := p.Shard(obj)
		if err != nil {
			return n, err
		}
		p.met.puts.Add(uint64(len(byObj[obj])))
		landed, err := repl.PutAll(ctx, byObj[obj])
		n += landed
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Collect fetches one object's blocks with Level <= maxLevel from its
// shard, deduplicated: a level-bounded read stops at the owners whose
// answers already decode levels 0..maxLevel, and maxLevel < 0 reads
// every block from every owner (see Replicated.CollectObject).
func (p *Placed) Collect(ctx context.Context, obj core.ObjectID, maxLevel int) ([]*core.CodedBlock, error) {
	repl, err := p.Shard(obj)
	if err != nil {
		return nil, err
	}
	p.met.collects.Inc()
	return repl.CollectObject(ctx, obj, maxLevel)
}

// ClientFor returns the client dialed to one known node, dead or alive
// — the per-node access a mover needs to inventory old owners and
// reclaim them, which shard fan-out (alive successors only) cannot
// reach.
func (p *Placed) ClientFor(addr string) (*Client, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	idx, ok := p.byAddr[addr]
	if !ok {
		return nil, fmt.Errorf("store: unknown placement node %q", addr)
	}
	return p.clients[idx], nil
}

// Replication returns R, the successor-list size objects spread over.
func (p *Placed) Replication() int { return p.cfg.Replication }

// Tolerance returns f, the loss count the least-critical level survives.
func (p *Placed) Tolerance() int { return p.cfg.Tolerance }

// RingMember is one node's placement view for tooling (prlcd ring).
type RingMember struct {
	Addr  string
	ID    uint64
	Alive bool
}

// Members lists every known node ascending by ring ID — the order
// ownership ranges read in: node i owns (ID[i-1], ID[i]], wrapping.
func (p *Placed) Members() []RingMember {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]RingMember, len(p.clients))
	for i := range p.clients {
		out[i] = RingMember{Addr: p.addrOf[i], ID: p.ring.ID(i), Alive: p.ring.Alive(i)}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
