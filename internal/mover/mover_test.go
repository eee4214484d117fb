package mover

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/repair"
	"repro/internal/store"
)

var testDist = core.PriorityDistribution{0.3, 0.3, 0.4}

func testCode(t *testing.T, seed int64, n int) (*core.Levels, [][]byte, []*core.CodedBlock) {
	t.Helper()
	levels, err := core.NewLevels(3, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 32)
		rng.Read(sources[i])
	}
	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, testDist, n)
	if err != nil {
		t.Fatal(err)
	}
	return levels, sources, blocks
}

// testFleet starts n real TCP daemons and a placement layer over the
// first placedN of them; the rest are standby nodes a test can Join.
type testFleet struct {
	servers []*store.Server
	addrs   []string
	placed  *store.Placed
}

func newTestFleet(t *testing.T, n, placedN, levels int) *testFleet {
	return newTestFleetOver(t, n, placedN, levels, nil)
}

// newTestFleetOver is newTestFleet with every client — the joiners'
// too — dialing through dialer (nil for a plain net.Dialer).
func newTestFleetOver(t *testing.T, n, placedN, levels int, dialer store.Dialer) *testFleet {
	t.Helper()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		srv, err := store.NewServer(store.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, srv.Addr())
	}
	newClient := func(addr string) (*store.Client, error) {
		return store.NewClient(store.ClientConfig{
			Addr:        addr,
			Dialer:      dialer,
			DialTimeout: time.Second,
			OpTimeout:   2 * time.Second,
			Retry: store.RetryPolicy{
				MaxAttempts: 3,
				BaseDelay:   time.Millisecond,
				MaxDelay:    5 * time.Millisecond,
			},
		})
	}
	clients := make([]*store.Client, placedN)
	for i := 0; i < placedN; i++ {
		cl, err := newClient(f.addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	pcfg := store.PlacedConfig{Replication: 2, Tolerance: 1}
	if dialer != nil {
		pcfg.NewClient = newClient
	}
	placed, err := store.NewPlaced(clients, levels, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	f.placed = placed
	t.Cleanup(func() {
		placed.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		for _, s := range f.servers {
			s.Shutdown(sctx)
		}
	})
	return f
}

// pickMovingNames returns n object names for a fleet whose third node
// is about to join, guaranteeing at least one of them changes owners.
// A scratch placement ring over all three addresses predicts post-join
// ownership; names whose pre-join owner set survives the join intact
// are kept only to fill out the count.
func pickMovingNames(t *testing.T, f *testFleet, n int) []string {
	t.Helper()
	clients := make([]*store.Client, len(f.addrs))
	for i, addr := range f.addrs {
		cl, err := store.NewClient(store.ClientConfig{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	scratch, err := store.NewPlaced(clients, 3, store.PlacedConfig{Replication: 2, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer scratch.Close()

	var movers, stayers []string
	for i := 0; len(movers)+len(stayers) < 4*n && len(movers) < n; i++ {
		name := fmt.Sprintf("migrate-%d", i)
		obj := core.NamedObject(name)
		before, err := f.placed.ReplicasForObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		after, err := scratch.ReplicasForObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		afterSet := make(map[string]bool, len(after))
		for _, a := range after {
			afterSet[a] = true
		}
		moves := false
		for _, a := range before {
			if !afterSet[a] {
				moves = true
				break
			}
		}
		if moves {
			movers = append(movers, name)
		} else {
			stayers = append(stayers, name)
		}
	}
	if len(movers) == 0 {
		t.Fatalf("no candidate name changes owners when %s joins", f.addrs[2])
	}
	names := append(movers, stayers...)
	if len(names) > n {
		names = names[:n]
	}
	return names
}

// TestMigrateOnJoin is the tentpole scenario: a fleet of two carries a
// dozen objects, a third node joins and takes over part of the ring,
// the mover re-homes the displaced objects most-critical-first,
// verifies the new owners, and wipes the old ones — after which level 0
// decodes bit-exactly from the new owners alone.
func TestMigrateOnJoin(t *testing.T) {
	ctx := context.Background()
	const objects = 12
	const blocksPerObject = 24
	f := newTestFleet(t, 3, 2, 3)

	// Ring positions depend on the fleet's random ports, so pick object
	// names known to change owners when node 2 joins: placement is pure
	// ring math, and a scratch ring over all three nodes gives post-join
	// ownership without mutating the real one.
	names := pickMovingNames(t, f, objects)

	levels, _, _ := testCode(t, 1, 1)
	type objState struct {
		obj     core.ObjectID
		sources [][]byte
		owners  []string
	}
	objs := make([]objState, objects)
	for i := range objs {
		lv, sources, blocks := testCode(t, int64(100+i), blocksPerObject)
		levels = lv
		obj := core.NamedObject(names[i])
		for _, b := range blocks {
			b.Object = obj
		}
		if _, err := f.placed.PutAll(ctx, blocks); err != nil {
			t.Fatalf("client-visible put error before join: %v", err)
		}
		owners, err := f.placed.ReplicasForObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = objState{obj: obj, sources: sources, owners: owners}
	}

	if err := f.placed.Join(f.addrs[2]); err != nil {
		t.Fatalf("join: %v", err)
	}

	// Ownership after the join, recomputed from the live ring — at least
	// one name was picked to move, the rest depend on the geometry.
	var moved []int
	for i, o := range objs {
		after, err := f.placed.ReplicasForObject(o.obj)
		if err != nil {
			t.Fatal(err)
		}
		afterSet := make(map[string]bool, len(after))
		for _, a := range after {
			afterSet[a] = true
		}
		for _, a := range o.owners {
			if !afterSet[a] {
				moved = append(moved, i)
				break
			}
		}
		objs[i].owners = after
	}
	if len(moved) == 0 {
		t.Fatalf("join displaced no object across %d objects — ring diff broken", objects)
	}

	m, err := New(f.placed, Config{
		Scheme:      core.PLC,
		Levels:      levels,
		Dist:        testDist,
		TotalBlocks: blocksPerObject,
		Workers:     3,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.RunOnce(ctx)
	if err != nil {
		t.Fatalf("migration round: %v", err)
	}
	if got := len(rep.Plan.Objects); got != len(moved) {
		t.Fatalf("planned %d objects, want the %d that moved", got, len(moved))
	}
	if rep.Migrated != len(moved) || rep.Failed != 0 {
		t.Fatalf("migrated %d, failed %d, want %d/0", rep.Migrated, rep.Failed, len(moved))
	}
	if rep.DeletesIssued == 0 || rep.BlocksReclaimed == 0 {
		t.Fatalf("nothing reclaimed: %+v", rep)
	}

	// The plan is ordered most-critical-level-first.
	for i := 1; i < len(rep.Plan.Objects); i++ {
		if rep.Plan.Objects[i-1].Critical > rep.Plan.Objects[i].Critical {
			t.Fatalf("plan out of order: critical %d before %d",
				rep.Plan.Objects[i-1].Critical, rep.Plan.Objects[i].Critical)
		}
	}

	// A second round finds placement and data in agreement.
	rep, err = m.RunOnce(ctx)
	if err != nil {
		t.Fatalf("follow-up round: %v", err)
	}
	if len(rep.Plan.Objects) != 0 {
		t.Fatalf("second round still plans %d objects", len(rep.Plan.Objects))
	}

	// Old owners are wiped: no node outside the successor list holds a
	// single block of a migrated object.
	for _, i := range moved {
		o := objs[i]
		ownerSet := make(map[string]bool, len(o.owners))
		for _, a := range o.owners {
			ownerSet[a] = true
		}
		for _, addr := range f.addrs {
			if ownerSet[addr] {
				continue
			}
			cl, err := store.NewClient(store.ClientConfig{Addr: addr})
			if err != nil {
				t.Fatal(err)
			}
			st, err := cl.Stat(ctx)
			cl.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, os := range st.PerObject {
				if os.Object == o.obj {
					t.Fatalf("stale holder %s still carries %d blocks of %s", addr, os.Blocks, o.obj)
				}
			}
		}
	}

	// Level 0 decodes bit-exactly from the new owners alone — the
	// original owners' copies are gone, so this is the migrated data.
	for _, i := range moved {
		o := objs[i]
		clients := make([]*store.Client, len(o.owners))
		for j, addr := range o.owners {
			cl, err := store.NewClient(store.ClientConfig{Addr: addr})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			clients[j] = cl
		}
		repl, err := store.NewReplicated(clients, levels.Count(), store.ReplicatedConfig{Tolerance: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := repl.CollectObject(ctx, o.obj, -1)
		if err != nil {
			t.Fatalf("client-visible collect error after migration: %v", err)
		}
		dec, err := core.NewDecoder(core.PLC, levels, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			if b.Object != o.obj {
				t.Fatalf("collect leaked foreign object %s", b.Object)
			}
			if _, err := dec.Add(b); err != nil {
				t.Fatalf("decoder rejected migrated block: %v", err)
			}
		}
		if !dec.LevelDecoded(0) {
			t.Fatalf("object %s: critical level undecodable from new owners alone", o.obj)
		}
		for j := 0; j < levels.Size(0); j++ {
			src, err := dec.Source(j)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(src, o.sources[j]) {
				t.Fatalf("object %s: critical block %d corrupted by migration", o.obj, j)
			}
		}
	}
}

// TestKickOnMembershipChange wires the mover to the placement hook and
// checks a join triggers a round without waiting out the interval.
func TestKickOnMembershipChange(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, 3, 2, 3)
	levels, _, blocks := testCode(t, 3, 16)
	obj := core.NamedObject("kick")
	for _, b := range blocks {
		b.Object = obj
	}
	if _, err := f.placed.PutAll(ctx, blocks); err != nil {
		t.Fatal(err)
	}

	m, err := New(f.placed, Config{
		Scheme:      core.PLC,
		Levels:      levels,
		Dist:        testDist,
		TotalBlocks: 16,
		Interval:    time.Hour, // only Kick can trigger further rounds
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.placed.SetMembershipHook(m.Kick)
	m.Start()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := m.Stop(sctx); err != nil {
			t.Fatal(err)
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for m.Rounds() < 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	base := m.Rounds()
	if base < 1 {
		t.Fatal("initial round never ran")
	}
	if err := f.placed.Join(f.addrs[2]); err != nil {
		t.Fatal(err)
	}
	for m.Rounds() <= base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if m.Rounds() <= base {
		t.Fatalf("join did not kick a round within the deadline (still %d)", base)
	}
}

func TestThrottle(t *testing.T) {
	if newThrottle(0, 0) != nil {
		t.Fatal("zero rate should disable the throttle")
	}
	var tt *throttle
	if _, err := tt.wait(context.Background(), 1<<20); err != nil {
		t.Fatalf("nil throttle must admit everything: %v", err)
	}

	// A full bucket admits a burst instantly, then the rate gates.
	th := newThrottle(1<<20, 1<<20) // 1 MiB/s, 1 MiB burst
	t0 := time.Now()
	if _, err := th.wait(context.Background(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 200*time.Millisecond {
		t.Fatalf("burst admission took %v", d)
	}
	t0 = time.Now()
	if _, err := th.wait(context.Background(), 1<<18); err != nil { // 256 KiB ≈ 250ms refill
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 100*time.Millisecond {
		t.Fatalf("drained bucket admitted %v too fast: %v", 1<<18, d)
	}

	// Cancellation frees a blocked waiter.
	th = newThrottle(1024, 1024)
	if _, err := th.wait(context.Background(), 1024); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := th.wait(cctx, 1024); err == nil {
		t.Fatal("expected context error from a starved throttle")
	}

	// Oversized requests overdraw rather than deadlock.
	th = newThrottle(1<<30, 1024)
	if _, err := th.wait(context.Background(), 1<<20); err != nil {
		t.Fatalf("oversized request deadlocked: %v", err)
	}
}

func TestBlockKeyAndSortDeterminism(t *testing.T) {
	_, _, blocks := testCode(t, 9, 12)
	a := append([]*core.CodedBlock(nil), blocks...)
	b := append([]*core.CodedBlock(nil), blocks...)
	rand.New(rand.NewSource(2)).Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	repair.SortBlocks(a)
	repair.SortBlocks(b)
	for i := range a {
		if blockKey(a[i]) != blockKey(b[i]) {
			t.Fatalf("SortBlocks not order-insensitive at %d", i)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Level > a[i].Level {
			t.Fatal("SortBlocks did not order by level")
		}
	}
}
