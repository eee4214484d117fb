package repair

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/store"
)

// TestPlacementChurnEndToEnd is the full placement-layer loop against
// real TCP daemons: keyed puts route through the ring, a node dies, the
// failure detector suspects and then removes it, repair heals the
// object's shard on the surviving owners, and the critical level reads
// back bit-exact — with zero client-visible errors along the way.
func TestPlacementChurnEndToEnd(t *testing.T) {
	ctx := context.Background()
	const n = 3

	servers := make([]*store.Server, n)
	clients := make([]*store.Client, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := store.NewServer(store.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		addrs[i] = srv.Addr()
		cl, err := store.NewClient(store.ClientConfig{
			Addr:      srv.Addr(),
			OpTimeout: 2 * time.Second,
			Retry: store.RetryPolicy{
				MaxAttempts: 3,
				BaseDelay:   time.Millisecond,
				MaxDelay:    5 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	placed, err := store.NewPlaced(clients, 3, store.PlacedConfig{Replication: 3, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		placed.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		for _, s := range servers {
			s.Shutdown(sctx)
		}
	})

	// The failure detector probes through the placement layer's own
	// clients and drives ring membership: suspects stay placed (they may
	// be a network blip), dead nodes are removed, recoveries return.
	mon, err := gossip.NewMonitor(addrs, placed, gossip.MonitorConfig{
		Seed:         5,
		SuspectAfter: 1,
		DeadAfter:    3,
		ProbeTimeout: time.Second,
		OnEvent: func(e gossip.Event) {
			switch e.Next {
			case gossip.Dead:
				placed.SetAlive(e.Addr, false)
			case gossip.Alive:
				placed.SetAlive(e.Addr, true)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	obj := core.NamedObject("placement-e2e")
	levels, sources, blocks, targets := testCode(t, 17, 24)
	for _, b := range blocks {
		b.Object = obj
	}
	if _, err := placed.PutAll(ctx, blocks); err != nil {
		t.Fatalf("client-visible put error during steady state: %v", err)
	}

	before, err := placed.ReplicasForObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 3 {
		t.Fatalf("object spread over %d nodes, want 3: %v", len(before), before)
	}

	// Kill the object's primary — a real daemon death, not a simulated
	// partition. The monitor needs DeadAfter consecutive misses.
	victim := before[0]
	for i, a := range addrs {
		if a == victim {
			sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			servers[i].Shutdown(sctx)
			cancel()
		}
	}
	for i := 0; i < 5 && mon.State(victim) != gossip.Dead; i++ {
		mon.Tick(ctx)
	}
	if got := mon.State(victim); got != gossip.Dead {
		t.Fatalf("victim state after probes: %v, want Dead", got)
	}

	after, err := placed.ReplicasForObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 {
		t.Fatalf("post-churn shard has %d nodes, want the 2 survivors: %v", len(after), after)
	}
	for _, a := range after {
		if a == victim {
			t.Fatalf("dead node %s still owns the object: %v", victim, after)
		}
	}

	// Repair follows the ring: the daemon re-resolves the shard each
	// round, so regeneration lands on the surviving owners.
	d, err := NewObject(placed, obj, Config{
		Scheme:  core.PLC,
		Levels:  levels,
		Targets: targets,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	for round := 0; round < 8; round++ {
		rep, err = d.RunOnce(ctx)
		if err != nil {
			t.Fatalf("repair round %d: %v", round, err)
		}
		if rep.Audit.Healthy() {
			break
		}
	}
	if !rep.Audit.Healthy() {
		t.Fatalf("fleet not healthy after repair: %d unreachable, deficits %+v",
			rep.Audit.Unreachable, rep.Audit.Deficient())
	}

	// The keyed read decodes the critical level bit-exactly from the
	// survivors — the paper's differentiated-persistence guarantee,
	// carried through churn by placement + repair.
	got, err := placed.Collect(ctx, obj, -1)
	if err != nil {
		t.Fatalf("client-visible collect error after churn: %v", err)
	}
	for _, b := range got {
		if b.Object != obj {
			t.Fatalf("collect leaked foreign object %s", b.Object)
		}
	}
	checkCriticalLevel(t, decodeAll(t, levels, got), levels, sources)

	// Determinism: a mirror front end over the same addresses, driven
	// through the same membership sequence, assigns identically.
	mirrorClients := make([]*store.Client, n)
	for i, a := range addrs {
		cl, err := store.NewClient(store.ClientConfig{Addr: a})
		if err != nil {
			t.Fatal(err)
		}
		mirrorClients[i] = cl
	}
	mirror, err := store.NewPlaced(mirrorClients, 3, store.PlacedConfig{Replication: 3, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mirror.Close() })
	if err := mirror.SetAlive(victim, false); err != nil {
		t.Fatal(err)
	}
	mirrored, err := mirror.ReplicasForObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mirrored, after) {
		t.Fatalf("placement not deterministic: %v vs %v", mirrored, after)
	}
}
