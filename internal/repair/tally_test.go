package repair

import (
	"context"
	"net"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// tripDialer calls trip just before the after-th frame written to addr
// since arm — the way to cut a fleet at a chosen point inside a round.
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
	f.kill(2)
	f.heal(2)

	// The wiped replica is preferred, so its frames this round are the
	// audit's stat, the collect's get, then puts: cut the whole fleet
	// at its third put.
	trip.arm(f.addrs[2], 5, func() {
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
	sum.Add(rep.Tally)
	check("after the failed round")

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
