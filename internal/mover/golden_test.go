package mover

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// goldenMoverInventory is the SHA-256 over every node's sorted wire
// inventory after the seeded join + migration below, recorded at the
// commit before repair and mover were folded onto one loop and one
// fill: same draws, same order, same blocks placed across commits.
const goldenMoverInventory = "2f71bf52179413b7f86b2d45bf158518c6c5cd8ff7cfc0feb5b63cc74290a198"

// nodeInventory reads one node's every block, one object at a time: a
// read names one object, so the whole inventory is a walk over the
// objects its Stats().PerObject lists.
func nodeInventory(ctx context.Context, cl *store.Client) ([]*core.CodedBlock, error) {
	st, err := cl.Stat(ctx)
	if err != nil {
		return nil, err
	}
	var out []*core.CodedBlock
	for _, os := range st.PerObject {
		blocks, err := cl.GetObject(ctx, os.Object, -1)
		if err != nil {
			return nil, err
		}
		out = append(out, blocks...)
	}
	return out, nil
}

// namedDialer resolves stable node names to the kernel-chosen listen
// addresses, so ring positions — and therefore who is stale after a
// join — do not depend on ephemeral ports.
type namedDialer map[string]string

func (d namedDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	real, ok := d[addr]
	if !ok {
		return nil, fmt.Errorf("namedDialer: unknown node %q", addr)
	}
	return (&net.Dialer{}).DialContext(ctx, network, real)
}

// TestGoldenMoverInventory pins what a seeded migration places: three
// named nodes carry twelve objects, a fourth joins, RunOnce until the
// plan is empty, hash every node.
func TestGoldenMoverInventory(t *testing.T) {
	ctx := context.Background()
	const nodes, objects, blocksPerObject = 4, 12, 24
	dialer := namedDialer{}
	names := make([]string, nodes)
	for i := range names {
		srv, err := store.NewServer(store.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
		})
		names[i] = fmt.Sprintf("n%d", i)
		dialer[names[i]] = srv.Addr()
	}
	newClient := func(name string) (*store.Client, error) {
		return store.NewClient(store.ClientConfig{
			Addr:        name,
			Dialer:      dialer,
			DialTimeout: time.Second,
			OpTimeout:   2 * time.Second,
		})
	}
	clients := make([]*store.Client, nodes-1)
	for i := range clients {
		cl, err := newClient(names[i])
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	placed, err := store.NewPlaced(clients, 3, store.PlacedConfig{Replication: 2, Tolerance: 1, NewClient: newClient})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { placed.Close() })

	var levels *core.Levels
	for i := 0; i < objects; i++ {
		lv, _, blocks := testCode(t, int64(200+i), blocksPerObject)
		levels = lv
		obj := core.NamedObject(fmt.Sprintf("golden-%d", i))
		for _, b := range blocks {
			b.Object = obj
		}
		if _, err := placed.PutAll(ctx, blocks); err != nil {
			t.Fatal(err)
		}
	}
	if err := placed.Join(names[nodes-1]); err != nil {
		t.Fatal(err)
	}

	m, err := New(placed, Config{
		Scheme:      core.PLC,
		Levels:      levels,
		Dist:        testDist,
		TotalBlocks: blocksPerObject,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	migrated := 0
	for rounds := 0; ; rounds++ {
		if rounds > 4 {
			t.Fatalf("plan not empty after %d rounds", rounds)
		}
		rep, err := m.RunOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Plan.Objects) == 0 {
			break
		}
		migrated += rep.Migrated
	}
	if migrated == 0 {
		t.Fatal("the join displaced no object: the golden history is empty")
	}

	h := sha256.New()
	for i, name := range names {
		cl, err := placed.ClientFor(name)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := nodeInventory(ctx, cl)
		if err != nil {
			t.Fatalf("node %s inventory: %v", name, err)
		}
		wire := make([][]byte, len(blocks))
		for j, b := range blocks {
			if wire[j], err = b.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		}
		sort.Slice(wire, func(a, b int) bool { return bytes.Compare(wire[a], wire[b]) < 0 })
		h.Write([]byte{byte(i), byte(len(wire)), byte(len(wire) >> 8)})
		for _, w := range wire {
			h.Write(w)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenMoverInventory {
		t.Fatalf("seeded migration placed different blocks than the recorded history (%d objects migrated):\n got %s\nwant %s",
			migrated, got, goldenMoverInventory)
	}
}
