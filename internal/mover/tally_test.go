package mover

import (
	"context"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/repair"
	"repro/internal/store"
)

// tripDialer calls trip just before the after-th frame written to addr
// since arm — the way to cut a node at a chosen point inside a round.
// It sits under the FaultDialer, so the tripping frame itself still
// goes out and every later one meets the partition.
type tripDialer struct {
	mu    sync.Mutex
	addr  string
	after int
	seen  int
	trip  func()
}

func (d *tripDialer) arm(addr string, after int, trip func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addr, d.after, d.seen, d.trip = addr, after, 0, trip
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
	if c.addr == d.addr {
		if d.seen++; d.seen == d.after {
			trip = d.trip
		}
	}
	d.mu.Unlock()
	if trip != nil {
		trip()
	}
	return c.Conn.Write(p)
}

// TestTallyMatchesCounters checks the one tally against the counters it
// feeds: after a round that fails half-way (the joining owner is cut
// off between the audit and the verification) and after the round that
// finishes the migration, every mover_* fill counter equals the sum of
// the Reports' fields — work done by failed attempts is still counted,
// the same way the repair daemon counts it.
func TestTallyMatchesCounters(t *testing.T) {
	ctx := context.Background()
	trip := &tripDialer{}
	faults := store.NewFaultDialer(trip, store.FaultConfig{Seed: 1})
	f := newTestFleetOver(t, 3, 2, 3, faults)
	name := pickMovingNames(t, f, 1)[0]
	levels, _, blocks := testCode(t, 5, 24)
	obj := core.NamedObject(name)
	for _, b := range blocks {
		b.Object = obj
	}
	if _, err := f.placed.PutAll(ctx, blocks); err != nil {
		t.Fatal(err)
	}
	joiner := f.addrs[2]
	if err := f.placed.Join(joiner); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	m, err := New(f.placed, Config{
		Scheme: core.PLC, Levels: levels, Dist: testDist, TotalBlocks: 24,
		Workers: 1, Seed: 7, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The joiner holds nothing, so it is preferred: its frames this
	// round are the plan's stat, the audit's stat, the collect's get,
	// then puts. Cut it off at its third put — later placements land on
	// the other owner alone and the verification finds it unreachable.
	trip.arm(joiner, 6, func() { faults.Partition(joiner) })
	var sum repair.Tally
	check := func(when string) {
		t.Helper()
		for name, want := range map[string]int64{
			"mover_blocks_regenerated_total": int64(sum.Regenerated),
			"mover_blocks_copied_total":      int64(sum.Copied),
			"mover_copies_placed_total":      int64(sum.Copies),
			"mover_bytes_collected_total":    sum.BytesCollected,
			"mover_bytes_placed_total":       sum.BytesPlaced,
			"mover_levels_skipped_total":     int64(len(sum.SkippedLevels)),
		} {
			if got := int64(reg.Counter(name).Value()); got != want {
				t.Errorf("%s: %s = %d, reports sum to %d", when, name, got, want)
			}
		}
	}

	failed, err := m.RunOnce(ctx)
	if err == nil {
		t.Fatal("round survived losing an owner before verification")
	}
	if failed.Failed != 1 || failed.Migrated != 0 {
		t.Fatalf("failed %d, migrated %d, want 1/0", failed.Failed, failed.Migrated)
	}
	if failed.Regenerated == 0 || failed.BytesCollected == 0 {
		t.Fatalf("cut came too early to leave partial work: %+v", failed)
	}
	sum.Add(failed.Tally)
	check("after the failed round")

	faults.Heal(joiner)
	rep, err := m.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrated != 1 {
		t.Fatalf("healed round migrated %d objects, want 1", rep.Migrated)
	}
	sum.Add(rep.Tally)
	check("after the migration")
}
