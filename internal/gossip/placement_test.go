package gossip_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/repair"
	"repro/internal/store"
)

// TestFacadePlacementRoundTrip exercises the placement surface with a
// gossip monitor driving membership: named objects, a placed fleet,
// keyed collect, and an object-scoped repair daemon.
func TestFacadePlacementRoundTrip(t *testing.T) {
	ctx := context.Background()
	levels, err := core.NewLevels(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 16)
		rng.Read(sources[i])
	}
	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, core.NewUniformDistribution(2), 24)
	if err != nil {
		t.Fatal(err)
	}

	obj := core.NamedObject("facade-object")
	if obj == core.ZeroObject || obj == core.AllObjects {
		t.Fatalf("NamedObject landed on a reserved value: %s", obj)
	}
	parsed, err := core.ParseObjectID(obj.String())
	if err != nil || parsed != obj {
		t.Fatalf("canonical form did not round-trip: %v, %v", parsed, err)
	}
	for _, b := range blocks {
		b.Object = obj
	}

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
		if clients[i], err = store.NewClient(store.ClientConfig{Addr: srv.Addr()}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		for _, s := range servers {
			s.Shutdown(sctx)
		}
	})
	placed, err := store.NewPlaced(clients, levels.Count(), store.PlacedConfig{Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { placed.Close() })
	if id := store.NodeID(addrs[0]); placed.Members()[0].ID != id && placed.Members()[len(addrs)-1].ID != id &&
		placed.Members()[1].ID != id {
		t.Fatalf("NodeID(%s) = %x not on the ring", addrs[0], id)
	}

	mon, err := gossip.NewMonitor(addrs, placed, gossip.MonitorConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mon.Tick(ctx)

	if _, err := placed.PutAll(ctx, blocks); err != nil {
		t.Fatal(err)
	}
	got, err := placed.Collect(ctx, obj, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("collected %d blocks, want %d", len(got), len(blocks))
	}
	for _, b := range got {
		if b.Object != obj {
			t.Fatalf("collect leaked object %s", b.Object)
		}
	}

	d, err := repair.NewObject(placed, obj, repair.Config{
		Scheme: core.PLC, Levels: levels, Targets: []int{12, 12}, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audit == nil || rep.Audit.Reachable != n {
		t.Fatalf("object audit did not reach the fleet: %+v", rep.Audit)
	}
}
