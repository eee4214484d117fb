package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/metrics"
)

// ReplicatedConfig parameterizes a Replicated store.
type ReplicatedConfig struct {
	// Tolerance is f, the number of simultaneous replica losses the
	// least-important level must survive: the last level is stored on
	// f+1 replicas. Default 1.
	Tolerance int
	// Metrics, when non-nil, receives fan-out and per-replica outcome
	// counters (see DESIGN.md §10), each replica's labelled
	// {node="<addr>"} by its client's address.
	Metrics *metrics.Registry
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
	next    atomic.Uint64 // rotates the put window
	reads   atomic.Uint64 // rotates a bounded read's first owner
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
	seed := maphash.MakeSeed()
	r := &Replicated{
		clients:  append([]*Client(nil), clients...),
		levels:   levels,
		cfg:      cfg,
		wireHash: func(wire []byte) uint64 { return maphash.Bytes(seed, wire) },
	}
	r.met = newReplicatedMetrics(cfg.Metrics, r.ReplicaLabels())
	return r, nil
}

// Clients returns the per-replica clients as a fresh slice — mutating it
// cannot reorder or swap the store's own replica set (the elements still
// point at the live clients; replica membership itself is immutable here).
func (r *Replicated) Clients() []*Client {
	return append([]*Client(nil), r.clients...)
}

// Levels returns the number of priority levels the store was built for.
func (r *Replicated) Levels() int { return r.levels }

// ReplicaLabels returns the replicas' addresses, in replica order — for a
// placement shard, the node addresses in successor order. They label the
// per-replica metric series.
func (r *Replicated) ReplicaLabels() []string {
	labels := make([]string, len(r.clients))
	for i, c := range r.clients {
		labels[i] = c.Addr()
	}
	return labels
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

// Put stores one block as PutAllPreferring stores a batch of one: on
// ReplicasFor(b.Level) replicas, chosen by a rotating window so load
// spreads evenly, failing over past the window only when no window
// replica accepts it.
func (r *Replicated) Put(ctx context.Context, b *core.CodedBlock) error {
	_, err := r.PutAllPreferring(ctx, []*core.CodedBlock{b}, nil)
	return err
}

// putOrder appends to order the replica order one block's put tries: the
// preferred indices first, in order (out-of-range and duplicate ones
// ignored), then every other replica from the rotating window's next
// start. Each call advances the window by one.
func (r *Replicated) putOrder(order, prefer []int) []int {
	n := len(r.clients)
	start := int((r.next.Add(1) - 1) % uint64(n))
	base := len(order)
	for _, i := range prefer {
		if i >= 0 && i < n && !slices.Contains(order[base:], i) {
			order = append(order, i)
		}
	}
	for i := 0; i < n; i++ {
		if j := (start + i) % n; !slices.Contains(order[base:], j) {
			order = append(order, j)
		}
	}
	return order
}

// PutAll stores blocks like PutAllPreferring with no preference and
// returns how many landed.
func (r *Replicated) PutAll(ctx context.Context, blocks []*core.CodedBlock) (int, error) {
	landed, err := r.PutAllPreferring(ctx, blocks, nil)
	n := 0
	for _, ok := range landed {
		if ok {
			n++
		}
	}
	return n, err
}

// PutAllPreferring stores each block on its level's window: the first
// ReplicasFor(level) replicas of an order drawn as putOrder draws it, in
// block order, with prefer[i] tried first for blocks[i] (prefer is nil or
// holds one entry per block). Each replica is sent its window copies
// together, in one multi-block put, one replica after another in the
// order the blocks first name them (so the preferred replicas first). A
// block no window replica accepted then fails over along the rest of its
// order, one replica at a time, each replica again taking its share in
// one frame — so a block lands while any replica in the fleet accepts it,
// and repair later moves the copies back onto the window. A copy a
// replica refuses is not retried there (its client already retried the
// frame); per-replica failures after one copy landed are absorbed, and
// repair restores the missing copies. Each block is marshaled once, and
// every replica is sent those bytes. Repair uses the preferences to steer
// regenerated blocks onto the replicas its audit found under-provisioned.
//
// landed[i] reports whether blocks[i] is on at least one replica. The
// error is non-nil when the context ended or some block landed nowhere.
func (r *Replicated) PutAllPreferring(ctx context.Context, blocks []*core.CodedBlock, prefer [][]int) (landed []bool, err error) {
	n := len(r.clients)
	wires := make([][]byte, len(blocks))
	for i, b := range blocks {
		if wires[i], err = marshalPut(b); err != nil {
			return make([]bool, len(blocks)), err
		}
	}
	// blocks[i]'s replica order is orders[i*n:][:n].
	orders := make([]int, 0, len(blocks)*n)
	for i := range blocks {
		var p []int
		if prefer != nil {
			p = prefer[i]
		}
		orders = r.putOrder(orders, p)
	}
	r.met.puts.Add(uint64(len(blocks)))
	landed = make([]bool, len(blocks))
	var failed [][]error
	copies := make([]blockCopy, 0, len(blocks)*n)
	for i, b := range blocks {
		for _, idx := range orders[i*n:][:r.ReplicasFor(b.Level)] {
			copies = append(copies, blockCopy{idx, i})
		}
	}
	for pos := 0; len(copies) > 0; pos++ {
		if failed, err = r.sendCopies(ctx, copies, wires, landed, failed); err != nil {
			return landed, err
		}
		copies = copies[:0]
		for i, b := range blocks {
			if k := r.ReplicasFor(b.Level) + pos; !landed[i] && k < n {
				copies = append(copies, blockCopy{orders[i*n+k], i})
			}
		}
	}
	lost, first := 0, -1
	for i, ok := range landed {
		if !ok {
			if lost++; first < 0 {
				first = i
			}
		}
	}
	if lost == 0 {
		return landed, nil
	}
	r.met.putErrors.Add(uint64(lost))
	return landed, fmt.Errorf("store: put: %d/%d blocks stored 0 copies, the first at level %d of %d targets: %w",
		lost, len(blocks), blocks[first].Level, r.ReplicasFor(blocks[first].Level),
		errors.Join(append([]error{ErrStoreUnavailable}, failed[first]...)...))
}

// blockCopy is one copy a put sends: blocks[block] to replica.
type blockCopy struct{ replica, block int }

// sendCopies sends each replica its copies in one multi-block put, one
// replica after another in the order copies first names them, and marks
// each copy that landed in landed. It appends each refused copy's error
// to failed, by block (made at the first refusal), and returns it. Only
// the context ending is an error. The copies are consumed.
func (r *Replicated) sendCopies(ctx context.Context, copies []blockCopy, wires [][]byte, landed []bool, failed [][]error) ([][]error, error) {
	sel := make([]int, 0, len(copies))   // one replica's blocks
	ws := make([][]byte, 0, len(copies)) // and their wires
	errs := make([]error, len(copies))
	for j := range copies {
		idx := copies[j].replica
		if idx < 0 {
			continue // sent with an earlier copy's replica
		}
		sel, ws = sel[:0], ws[:0]
		for k := j; k < len(copies); k++ {
			if copies[k].replica == idx {
				copies[k].replica = -1
				sel = append(sel, copies[k].block)
				ws = append(ws, wires[copies[k].block])
			}
		}
		r.clients[idx].putWires(ctx, ws, errs[:len(ws)])
		for k, i := range sel {
			r.met.perReplica[idx].put(errs[k])
			if errs[k] == nil {
				landed[i] = true
				continue
			}
			if failed == nil {
				failed = make([][]error, len(landed))
			}
			failed[i] = append(failed[i], errs[k])
		}
		if err := ctx.Err(); err != nil {
			return failed, err
		}
	}
	return failed, nil
}

// StatAll fetches every replica's inventory snapshot concurrently. The
// two slices are indexed by replica: errs[i] is non-nil (and stats[i]
// zero) where a replica was unreachable. Unlike a collect, reaching zero
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

// CollectObject fetches one object's blocks with Level <= maxLevel and
// returns the distinct ones. A negative maxLevel reads every stored block
// of the object from every owner (CollectAll). A level-bounded read asks
// the fewest owners that can hold the prefix and stops once the prefix
// has full rank: ReplicasFor never increases with level, so every block
// of level <= maxLevel whose put window fully landed sits on at least
// ReplicasFor(maxLevel) owners, and any n-ReplicasFor(maxLevel)+1 of them
// cover it — one owner for level 0. Their answers feed a coefficient-only
// core.RankTest through collect.Run; when an owner fails or answers
// nothing, or the answers leave levels 0..maxLevel short of full rank,
// every remaining owner is asked at once. So the result decodes the
// levels an exhaustive read's does (core.RankTest names the one
// improbable exception), and a read the first owners cannot settle costs
// one extra round trip. Answers are consumed in owner order, from a
// start owner that rotates read by read; requests still in flight when
// the read stops finish and are dropped. It fails only when every owner
// asked fails.
func (r *Replicated) CollectObject(ctx context.Context, obj core.ObjectID, maxLevel int) ([]*core.CodedBlock, error) {
	if maxLevel < 0 {
		return r.CollectAll(ctx, obj, maxLevel)
	}
	n := len(r.clients)
	start := int((r.reads.Add(1) - 1) % uint64(n))
	rd := r.newOwnerRead(ctx, obj, maxLevel, start)
	wave := n - r.ReplicasFor(maxLevel) + 1
	rd.ask(wave)
	var queue []*core.CodedBlock
	src := func() (*core.CodedBlock, error) {
		for len(queue) == 0 {
			if rd.consumed == rd.asked {
				if rd.asked == n {
					return nil, io.EOF
				}
				rd.ask(n) // the target is short
				continue
			}
			blocks, answered, err := rd.consume()
			if err != nil {
				return nil, err
			}
			if !answered {
				rd.ask(n)
			}
			queue = blocks
		}
		b := queue[0]
		queue = queue[1:]
		return b, nil
	}
	_, err := collect.Run(src, &core.RankTest{}, collect.Options{Context: ctx, TargetLevels: maxLevel + 1})
	if rd.asked > wave {
		r.met.collectWidened.Inc()
	}
	return rd.finish(err)
}

// CollectAll fetches one object's blocks with Level <= maxLevel (maxLevel
// < 0 for all) from every owner and returns the distinct ones: the
// exhaustive read. Inventory checks and audits read this way, and so do
// repair and the mover, which collect survivors rather than decode. It
// fails only when every owner fails.
func (r *Replicated) CollectAll(ctx context.Context, obj core.ObjectID, maxLevel int) ([]*core.CodedBlock, error) {
	rd := r.newOwnerRead(ctx, obj, maxLevel, 0)
	rd.ask(len(r.clients))
	var err error
	for rd.consumed < rd.asked && err == nil {
		_, _, err = rd.consume()
	}
	return rd.finish(err)
}

// ownerRead is one collect in progress: the owners in the order their
// answers are consumed, which of them were asked, and the merge of the
// answers consumed so far.
type ownerRead struct {
	r        *Replicated
	ctx      context.Context
	obj      core.ObjectID
	maxLevel int
	order    []int         // owner indices, from the start owner on
	answers  []ownerAnswer // by position in order
	asked    int           // order[:asked] were asked
	consumed int           // order[:consumed] were merged
	errs     []error       // of the consumed answers that did not merge
	merge    merger
}

// ownerAnswer is one owner's answer to a get, filled in by the request's
// goroutine before done closes.
type ownerAnswer struct {
	done  chan struct{}
	wires [][]byte
	err   error
	// dropped hands the outcome of an answer the read never consumed to
	// the metrics: the request's goroutine and finish each add one, and
	// whichever comes second records it.
	dropped atomic.Int32
}

func (r *Replicated) newOwnerRead(ctx context.Context, obj core.ObjectID, maxLevel, start int) *ownerRead {
	n := len(r.clients)
	rd := &ownerRead{
		r: r, ctx: ctx, obj: obj, maxLevel: maxLevel,
		order:   make([]int, n),
		answers: make([]ownerAnswer, n),
		merge:   r.newMerger(),
	}
	for k := range rd.order {
		rd.order[k] = (start + k) % n
	}
	return rd
}

// ask sends the get to every owner up to position upTo in order that was
// not asked yet, all at once.
func (rd *ownerRead) ask(upTo int) {
	for ; rd.asked < upTo; rd.asked++ {
		a := &rd.answers[rd.asked]
		a.done = make(chan struct{})
		idx := rd.order[rd.asked]
		go func() {
			a.wires, a.err = rd.r.clients[idx].getWires(rd.ctx, rd.obj, rd.maxLevel)
			close(a.done)
			if a.dropped.Add(1) == 2 {
				rd.r.met.perReplica[idx].get(a.err)
			}
		}()
	}
}

// consume waits for the next owner's answer in order and merges it,
// returning the blocks no earlier answer held and whether the owner
// answered anything at all. A failed owner, or one whose answer does not
// parse, is recorded and answers nothing; only the context ending is an
// error.
func (rd *ownerRead) consume() ([]*core.CodedBlock, bool, error) {
	a := &rd.answers[rd.consumed]
	select {
	case <-a.done:
	case <-rd.ctx.Done():
		return nil, false, rd.ctx.Err()
	}
	idx := rd.order[rd.consumed]
	rd.consumed++
	var blocks []*core.CodedBlock
	err := a.err
	if err == nil {
		blocks, err = rd.merge.add(a.wires)
	}
	rd.r.met.perReplica[idx].get(err)
	if err != nil {
		rd.errs = append(rd.errs, err)
		return nil, false, nil
	}
	return blocks, len(a.wires) > 0, nil
}

// finish settles the read's metrics and result; err is how the read
// loop ended.
func (rd *ownerRead) finish(err error) ([]*core.CodedBlock, error) {
	r := rd.r
	for k := rd.consumed; k < rd.asked; k++ {
		if a := &rd.answers[k]; a.dropped.Add(1) == 2 {
			r.met.perReplica[rd.order[k]].get(a.err)
		}
	}
	r.met.collects.Inc()
	r.met.collectOwners.Add(uint64(rd.asked))
	if err == nil && len(rd.errs) == rd.consumed {
		err = fmt.Errorf("store: collect: all %d replicas failed: %w",
			len(r.clients), errors.Join(append([]error{ErrStoreUnavailable}, rd.errs...)...))
	}
	if err != nil {
		r.met.collectErrors.Inc()
		return nil, err
	}
	r.met.collectBlocks.Add(uint64(len(rd.merge.out)))
	return rd.merge.out, nil
}

// merger is the union of the answers added to it, first copy of each
// block kept, in the order added. Only the entries no earlier answer
// holds are parsed, and an answer is all or nothing: when one of its new
// entries does not parse, add fails and none of the answer is kept — so
// its entries never shadow another owner's copies. The blocks alias the
// answers.
type merger struct {
	seen   wireSet
	out    []*core.CodedBlock
	dups   *metrics.Counter
	fresh  [][]byte
	hashes []uint64
}

func (r *Replicated) newMerger() merger {
	return merger{seen: wireSet{hash: r.wireHash, first: make(map[uint64][]byte)}, dups: r.met.collectDups}
}

// add merges one answer and returns the blocks it added.
func (m *merger) add(wires [][]byte) ([]*core.CodedBlock, error) {
	m.fresh, m.hashes = m.fresh[:0], m.hashes[:0]
	for _, w := range wires {
		if h := m.seen.hash(w); !m.seen.has(h, w) {
			m.fresh = append(m.fresh, w)
			m.hashes = append(m.hashes, h)
		}
	}
	blocks, err := parseBlocks(m.fresh)
	if err != nil {
		return nil, err
	}
	dups := len(wires) - len(m.fresh)
	added := len(m.out)
	for j, w := range m.fresh {
		if m.seen.add(m.hashes[j], w) {
			m.out = append(m.out, &blocks[j])
		} else {
			dups++ // a copy within this one answer
		}
	}
	m.dups.Add(uint64(dups))
	return m.out[added:], nil
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

// has reports whether wire, whose hash is h, is in the set.
func (s *wireSet) has(h uint64, wire []byte) bool {
	prev, taken := s.first[h]
	if !taken {
		return false
	}
	if bytes.Equal(prev, wire) {
		return true
	}
	for _, other := range s.spill {
		if bytes.Equal(other, wire) {
			return true
		}
	}
	return false
}

// add inserts wire, whose hash is h, and reports whether it was new.
func (s *wireSet) add(h uint64, wire []byte) bool {
	if s.has(h, wire) {
		return false
	}
	if _, taken := s.first[h]; taken {
		s.spill = append(s.spill, wire)
	} else {
		s.first[h] = wire
	}
	return true
}
