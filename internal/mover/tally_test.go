package mover

import (
	"context"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/repair"
	"repro/internal/store"
)

// tripDialer calls trip just before the first frame with op byte op
// written to addr since arm — the way to cut a node at a chosen frame
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

// TestTallyMatchesCounters checks the one tally against the counters it
// feeds: after a round that fails half-way (the joining owner is cut
// off between the audit and the verification) and after the round that
// finishes the migration, every mover_* fill counter equals the sum of
// the Reports' fields — work done by a failed round is still counted,
// the same way the repair daemon counts it. It also holds verify before
// release across rounds: the failed round deletes nothing and every
// stale holder keeps its blocks; once the owner heals, the next round
// migrates and reclaims them.
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
	owners, err := f.placed.ReplicasForObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	held := func(addr string) int {
		t.Helper()
		cl, err := f.placed.ClientFor(addr)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cl.Stat(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, os := range st.PerObject {
			if os.Object == obj {
				return os.Blocks
			}
		}
		return 0
	}
	staleBlocks := make(map[string]int)
	for _, addr := range f.addrs[:2] {
		if !slices.Contains(owners, addr) {
			staleBlocks[addr] = held(addr)
		}
	}
	if len(staleBlocks) == 0 {
		t.Fatal("the join left no stale holder")
	}
	reg := metrics.NewRegistry()
	m, err := New(f.placed, Config{
		Scheme: core.PLC, Levels: levels, Targets: testTargets(t, 24),
		Seed: 7, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The joiner holds nothing, so it is preferred: the round's
	// placement sends it the first multi-block put. Cut it off at that
	// put: the frame still lands, the other owner takes its share, and
	// the verification finds the joiner unreachable.
	trip.arm(joiner, 'M', func() { faults.Partition(joiner) })
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
			"mover_deletes_issued_total":     int64(sum.DeletesIssued),
			"mover_blocks_reclaimed_total":   int64(sum.BlocksReclaimed),
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
	if !strings.Contains(err.Error(), "verify") {
		t.Fatalf("round failed before its verification: %v", err)
	}
	if failed.DeletesIssued != 0 || failed.BlocksReclaimed != 0 {
		t.Fatalf("failed verification still released: %d deletes, %d blocks", failed.DeletesIssued, failed.BlocksReclaimed)
	}
	for addr, n := range staleBlocks {
		if got := held(addr); got != n {
			t.Fatalf("stale holder %s holds %d blocks after a failed verification, had %d", addr, got, n)
		}
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
	reclaimed := 0
	for addr, n := range staleBlocks {
		reclaimed += n
		if got := held(addr); got != 0 {
			t.Fatalf("stale holder %s still holds %d blocks after the migration", addr, got)
		}
	}
	if rep.DeletesIssued != len(staleBlocks) || rep.BlocksReclaimed != reclaimed {
		t.Fatalf("released with %d deletes, %d blocks; want %d, %d",
			rep.DeletesIssued, rep.BlocksReclaimed, len(staleBlocks), reclaimed)
	}
	sum.Add(rep.Tally)
	check("after the migration")
}
