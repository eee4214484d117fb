package store

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
)

// placedFixture is a small fleet: n live servers plus a Placed front end
// routing over them.
type placedFixture struct {
	servers []*Server
	addrs   []string
	placed  *Placed
}

func newPlacedFixture(t *testing.T, n int, cfg PlacedConfig) *placedFixture {
	t.Helper()
	f := &placedFixture{}
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		s := newTestServer(t, ServerConfig{})
		f.servers = append(f.servers, s)
		f.addrs = append(f.addrs, s.Addr())
		clients[i] = newTestClient(t, s.Addr(), nil)
	}
	p, err := NewPlaced(clients, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.placed = p
	return f
}

// keyedBlocks stamps a fresh coded batch with obj.
func keyedBlocks(t *testing.T, obj core.ObjectID, n int) (*core.Levels, [][]byte, []*core.CodedBlock) {
	t.Helper()
	levels, sources, blocks := testCode(t, n)
	for _, b := range blocks {
		b.Object = obj
	}
	return levels, sources, blocks
}

func TestPlacedKeyedEndToEnd(t *testing.T) {
	f := newPlacedFixture(t, 4, PlacedConfig{Replication: 3, Tolerance: 1})
	ctx := context.Background()

	alpha := core.NamedObject("alpha")
	beta := core.NamedObject("beta")
	levels, aSrc, aBlocks := keyedBlocks(t, alpha, 40)
	_, bSrc, bBlocks := keyedBlocks(t, beta, 40)

	if _, err := f.placed.PutAll(ctx, aBlocks); err != nil {
		t.Fatal(err)
	}
	if _, err := f.placed.PutAll(ctx, bBlocks); err != nil {
		t.Fatal(err)
	}

	// Each object decodes from exactly its own namespace, bit-exact.
	for _, tc := range []struct {
		obj core.ObjectID
		src [][]byte
	}{{alpha, aSrc}, {beta, bSrc}} {
		got, err := f.placed.Collect(ctx, tc.obj, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			if b.Object != tc.obj {
				t.Fatalf("collect leaked foreign object %s into %s", b.Object, tc.obj)
			}
		}
		checkCriticalLevel(t, decodeAll(t, levels, got), levels, tc.src)
	}

	// Critical-level-only read stays keyed too.
	crit, err := f.placed.Collect(ctx, alpha, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range crit {
		if b.Level != 0 || b.Object != alpha {
			t.Fatalf("level-0 keyed read returned object %s level %d", b.Object, b.Level)
		}
	}

	// Daemon inventories report both namespaces separately.
	seen := map[core.ObjectID]int{}
	for _, s := range f.servers {
		st := s.Stats()
		var sum int
		for _, os := range st.PerObject {
			seen[os.Object] += os.Blocks
			sum += os.Blocks
		}
		if sum != st.Blocks {
			t.Fatalf("per-object blocks %d do not add up to total %d", sum, st.Blocks)
		}
	}
	if seen[alpha] == 0 || seen[beta] == 0 {
		t.Fatalf("per-object stats missing a namespace: %v", seen)
	}
}

// TestPlacedDeterministic pins the acceptance criterion: same fleet,
// same membership sequence → identical assignment, run to run.
func TestPlacedDeterministic(t *testing.T) {
	addrs := []string{"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000", "10.0.0.4:7000", "10.0.0.5:7000"}
	build := func() *Placed {
		clients := make([]*Client, len(addrs))
		for i, a := range addrs {
			cl, err := NewClient(ClientConfig{Addr: a})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			clients[i] = cl
		}
		p, err := NewPlaced(clients, 2, PlacedConfig{Replication: 3})
		if err != nil {
			t.Fatal(err)
		}
		// Same membership script on both instances.
		if err := p.SetAlive(addrs[1], false); err != nil {
			t.Fatal(err)
		}
		if err := p.SetAlive(addrs[1], true); err != nil {
			t.Fatal(err)
		}
		if err := p.SetAlive(addrs[3], false); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := build(), build()
	objs := []core.ObjectID{
		core.NamedObject("alpha"), core.NamedObject("beta"),
		core.NamedObject("gamma"), core.ObjectID(7), core.ObjectID(1 << 60),
	}
	for _, obj := range objs {
		ra, err := a.ReplicasForObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.ReplicasForObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("placement for %s differs across runs: %v vs %v", obj, ra, rb)
		}
		if len(ra) != 3 {
			t.Fatalf("want 3 replicas for %s, got %v", obj, ra)
		}
		for _, addr := range ra {
			if addr == addrs[3] {
				t.Fatalf("failed node still placed for %s: %v", obj, ra)
			}
		}
	}
	if !reflect.DeepEqual(a.Members(), b.Members()) {
		t.Fatalf("ring membership differs: %v vs %v", a.Members(), b.Members())
	}
}

func TestPlacedChurnReroutesAndHeals(t *testing.T) {
	f := newPlacedFixture(t, 4, PlacedConfig{Replication: 2, Tolerance: 1})
	ctx := context.Background()
	obj := core.NamedObject("churn")

	before, err := f.placed.ReplicasForObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	shard1, err := f.placed.Shard(obj)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := f.placed.Shard(obj); again != shard1 {
		t.Fatal("shard cache missed with stable membership")
	}

	// Fail the object's primary: placement must move off it.
	if err := f.placed.SetAlive(before[0], false); err != nil {
		t.Fatal(err)
	}
	after, err := f.placed.ReplicasForObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range after {
		if addr == before[0] {
			t.Fatalf("dead node %s still placed: %v", before[0], after)
		}
	}
	if shard2, _ := f.placed.Shard(obj); shard2 == shard1 {
		t.Fatal("membership change did not invalidate shard cache")
	}

	// Writes and reads keep working against the rerouted shard.
	levels, sources, blocks := keyedBlocks(t, obj, 40)
	if _, err := f.placed.PutAll(ctx, blocks); err != nil {
		t.Fatal(err)
	}
	got, err := f.placed.Collect(ctx, obj, -1)
	if err != nil {
		t.Fatal(err)
	}
	checkCriticalLevel(t, decodeAll(t, levels, got), levels, sources)

	// Heal: the node rejoins and the original assignment returns.
	if err := f.placed.Join(before[0]); err != nil {
		t.Fatal(err)
	}
	healed, err := f.placed.ReplicasForObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(healed, before) {
		t.Fatalf("post-heal placement %v, want original %v", healed, before)
	}
}

func TestPlacedProbe(t *testing.T) {
	f := newPlacedFixture(t, 2, PlacedConfig{})
	ctx := context.Background()
	if err := f.placed.Probe(ctx, f.addrs[0]); err != nil {
		t.Fatalf("probe of live node: %v", err)
	}
	if err := f.placed.Probe(ctx, "nope:1"); err == nil {
		t.Fatal("probe of unknown node succeeded")
	}
	// Shut a node down; its probe must fail so a monitor can see it.
	sctx, cancel := context.WithTimeout(ctx, 2e9)
	defer cancel()
	f.servers[1].Shutdown(sctx)
	if err := f.placed.Probe(ctx, f.addrs[1]); err == nil {
		t.Fatal("probe of downed node succeeded")
	}
}

func TestPlacedValidation(t *testing.T) {
	f := newPlacedFixture(t, 3, PlacedConfig{})
	ctx := context.Background()
	if _, err := f.placed.Shard(core.AllObjects); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("wildcard shard: %v", err)
	}
	if err := f.placed.Put(ctx, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("nil block: %v", err)
	}
	if err := f.placed.SetAlive("ghost:1", false); err == nil {
		t.Fatal("SetAlive accepted unknown address")
	}
	if _, err := NewPlaced(nil, 2, PlacedConfig{}); err == nil {
		t.Fatal("empty fleet accepted")
	}

	// Zero-object (legacy key-less) blocks still route: the zero object
	// is a namespace like any other at the placement layer.
	_, _, blocks := testCode(t, 4)
	if err := f.placed.Put(ctx, blocks[0]); err != nil {
		t.Fatal(err)
	}

	if err := f.placed.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.placed.Shard(core.NamedObject("x")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("shard after close: %v", err)
	}
}

// TestReplicatedClientsCopy pins the accessor-aliasing fix: mutating the
// returned slice (or the constructor argument) must not corrupt wiring.
func TestReplicatedClientsCopy(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	cls := []*Client{newTestClient(t, s.Addr(), nil), newTestClient(t, s.Addr(), nil)}
	r, err := NewReplicated(cls, 2, ReplicatedConfig{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	cls[0] = nil // caller scribbles on its own slice: must not matter
	got := r.Clients()
	if got[0] == nil {
		t.Fatal("NewReplicated aliased the caller's slice")
	}
	got[1] = nil // scribble on the accessor's result: must not matter
	if r.Clients()[1] == nil {
		t.Fatal("Clients() leaked the internal slice")
	}
}

func TestGetBodyRoundTrip(t *testing.T) {
	cases := []struct {
		obj      core.ObjectID
		maxLevel int
	}{
		{core.NamedObject("x"), -1},
		{core.NamedObject("x"), 0},
		{core.ZeroObject, 2},
	}
	for _, tc := range cases {
		body := encodeGetBody(tc.obj, tc.maxLevel)
		if len(body) != getBodyLen {
			t.Fatalf("encodeGetBody(%s, %d) len %d, want %d", tc.obj, tc.maxLevel, len(body), getBodyLen)
		}
		obj, lvl, err := decodeGetBody(body)
		if err != nil {
			t.Fatal(err)
		}
		if obj != tc.obj || lvl != tc.maxLevel {
			t.Fatalf("round trip (%s, %d) → (%s, %d)", tc.obj, tc.maxLevel, obj, lvl)
		}
	}
	// One dialect: the 2-byte all-objects body of pre-namespace clients,
	// the wildcard in the 10-byte body, and any other length are bad
	// requests.
	for name, body := range map[string][]byte{
		"2-byte body":     {0xFF, 0xFF},
		"wildcard object": encodeGetBody(core.AllObjects, -1),
		"odd length":      {1, 2, 3},
	} {
		if _, _, err := decodeGetBody(body); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
}
