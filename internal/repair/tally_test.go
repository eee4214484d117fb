package repair

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// tripDialer calls trip just before the first frame with op byte op
// written to addr since arm — the way to cut a fleet at a chosen frame
// inside a round, whatever connections the round dials or finds stale.
// It sits under the FaultDialer, so the tripping frame itself still
// goes out and every later one meets the partition.
type tripDialer struct {
	mu   sync.Mutex
	addr string
	op   byte
	trip func()
}

func (d *tripDialer) arm(addr string, op byte, trip func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addr, d.op, d.trip = addr, op, trip
}

func (d *tripDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &tripConn{Conn: conn, d: d, addr: addr}, nil
}

type tripConn struct {
	net.Conn
	d    *tripDialer
	addr string
}

func (c *tripConn) Write(p []byte) (int, error) {
	d := c.d
	d.mu.Lock()
	var trip func()
	// A frame is one Write: 4 length bytes, then the op byte.
	if c.addr == d.addr && len(p) > 4 && p[4] == d.op {
		trip, d.trip = d.trip, nil
	}
	d.mu.Unlock()
	if trip != nil {
		trip()
	}
	return c.Conn.Write(p)
}

// quotaStore is a MemStore that, once given a quota, stores that many
// more blocks and answers every later put as full; a negative quota is
// no limit.
type quotaStore struct {
	*store.MemStore
	quota atomic.Int64
}

func newQuotaStore() *quotaStore {
	q := &quotaStore{MemStore: store.NewMemStore(0)}
	q.quota.Store(-1)
	return q
}

func (q *quotaStore) Put(obj core.ObjectID, level int, wire []byte) (bool, error) {
	for {
		left := q.quota.Load()
		if left < 0 {
			break
		}
		if left == 0 {
			return false, store.ErrStoreFull
		}
		if q.quota.CompareAndSwap(left, left-1) {
			break
		}
	}
	return q.MemStore.Put(obj, level, wire)
}

// TestTallyMatchesCounters checks the one tally against the counters it
// feeds: after a round that fails half-way and after the round that
// finishes the heal, every repair_* fill counter equals the sum of the
// Reports' fields — work done by a failed round is still counted.
func TestTallyMatchesCounters(t *testing.T) {
	levels, _, blocks, targets := testCode(t, 71, 24)
	trip := &tripDialer{}
	f := newFleetOver(t, 3, levels.Count(), trip)
	cfg := f.seed(levels, blocks, targets)
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	d, err := New(f.repl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wiped := newQuotaStore()
	f.killOnto(2, wiped)
	f.heal(2)

	// The wiped replica is preferred for every level, so the round's
	// placement sends it the first multi-block put, holding every block.
	// Cut the whole fleet at that put and let the wiped replica store
	// only three of its blocks: those land, and the rest find every
	// other replica gone.
	trip.arm(f.addrs[2], 'M', func() {
		wiped.quota.Store(3)
		for _, a := range f.addrs {
			f.dialer.Partition(a)
		}
	})
	ctx := context.Background()
	var sum Tally
	check := func(when string) {
		t.Helper()
		for name, want := range map[string]int64{
			"repair_blocks_regenerated_total": int64(sum.Regenerated),
			"repair_copies_placed_total":      int64(sum.Copies),
			"repair_bytes_collected_total":    sum.BytesCollected,
			"repair_bytes_placed_total":       sum.BytesPlaced,
			"repair_levels_skipped_total":     int64(len(sum.SkippedLevels)),
		} {
			if got := int64(reg.Counter(name).Value()); got != want {
				t.Errorf("%s: %s = %d, reports sum to %d", when, name, got, want)
			}
		}
	}

	rep, err := d.RunOnce(ctx)
	if err == nil {
		t.Fatal("round survived the whole fleet going dark mid-fill")
	}
	if rep.Regenerated == 0 || rep.BytesCollected == 0 {
		t.Fatalf("cut came too early to leave partial work: %+v", rep)
	}
	if rep.Regenerated != 3 {
		t.Fatalf("failed round regenerated %d blocks, want the 3 the wiped replica took", rep.Regenerated)
	}
	sum.Add(rep.Tally)
	check("after the failed round")

	wiped.quota.Store(-1)
	for _, a := range f.addrs {
		f.dialer.Heal(a)
	}
	for rounds := 0; ; rounds++ {
		if rounds > 8 {
			t.Fatal("fleet not healthy after 8 rounds")
		}
		rep, err := d.RunOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sum.Add(rep.Tally)
		if rep.Audit.Healthy() {
			break
		}
	}
	check("after the heal")
	if sum.Regenerated <= rep.Regenerated {
		t.Fatalf("the heal regenerated nothing beyond the failed round: %+v", sum)
	}
}
