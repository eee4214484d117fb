package store

import (
	"context"
	"errors"
	"testing"
)

// A last-level put whose entire rotating window is partitioned must
// fail over to the remaining replicas instead of surfacing an error —
// the fleet still has reachable nodes and a put needs one copy.
func TestPutFailsOverPastDeadWindow(t *testing.T) {
	levels, _, blocks := testCode(t, 24)
	dialer := NewFaultDialer(nil, FaultConfig{Seed: 1})
	srvs := make([]*Server, 3)
	clients := make([]*Client, 3)
	for i := range srvs {
		srvs[i] = newTestServer(t, ServerConfig{})
		clients[i] = newTestClient(t, srvs[i].Addr(), dialer)
	}
	repl, err := NewReplicated(clients, levels.Count(), ReplicatedConfig{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Two of three nodes down: every 2-replica window has at most one
	// live member, and 1/3 of rotations contain none. All puts must
	// still land (on node 2 when the window misses it).
	dialer.Partition(srvs[0].Addr())
	dialer.Partition(srvs[1].Addr())
	stored := 0
	for _, b := range blocks {
		if b.Level != levels.Count()-1 {
			continue
		}
		if err := repl.Put(ctx, b); err != nil {
			t.Fatalf("put with one live replica failed: %v", err)
		}
		stored++
	}
	if stored == 0 {
		t.Fatal("test code produced no last-level blocks")
	}
	if got := srvs[2].Len(); got != stored {
		t.Errorf("live replica holds %d blocks, want %d", got, stored)
	}

	// With every node down, the put genuinely fails.
	dialer.Partition(srvs[2].Addr())
	if err := repl.Put(ctx, blocks[0]); !errors.Is(err, ErrStoreUnavailable) {
		t.Errorf("put with no live replicas = %v, want ErrStoreUnavailable", err)
	}

	// Healed, the provisioned window is used again: a full put writes
	// ReplicasFor copies, not just one.
	for _, s := range srvs {
		dialer.Heal(s.Addr())
	}
	level0 := -1
	for i, b := range blocks {
		if b.Level == 0 {
			level0 = i
			break
		}
	}
	if level0 < 0 {
		t.Fatal("test code produced no level-0 blocks")
	}
	before := srvs[0].Len() + srvs[1].Len() + srvs[2].Len()
	if err := repl.Put(ctx, blocks[level0]); err != nil {
		t.Fatal(err)
	}
	if got := srvs[0].Len() + srvs[1].Len() + srvs[2].Len(); got != before+3 {
		t.Errorf("healed level-0 put added %d copies, want 3", got-before)
	}
}
