package mover

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/repair"
	"repro/internal/store"
)

var testDist = core.PriorityDistribution{0.3, 0.3, 0.4}

// testTargets apportions testDist over n blocks: the provisioning
// targets of an n-block testCode batch.
func testTargets(t *testing.T, n int) []int {
	t.Helper()
	targets, err := dist.Apportion(testDist, n)
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

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
			Addr:      addr,
			Dialer:    dialer,
			OpTimeout: 2 * time.Second,
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

// maxNameSearch bounds pickMovingNames' search for names that move.
const maxNameSearch = 1000

// pickMovingNames returns n object names for a fleet whose third node
// is about to join, guaranteeing at least one of them changes owners.
// A scratch placement ring over all three addresses predicts post-join
// ownership. The search runs until n names move — a joiner on a short
// ring arc can leave a handful of consecutive names in place — bounded
// by maxNameSearch; names whose pre-join owner set survives the join
// intact are kept only to fill out the count.
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
	for i := 0; i < maxNameSearch && len(movers) < n; i++ {
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

	// The plan is the displaced objects plus the ones short on their
	// owners: testCode draws each block's level at random, so most
	// objects fall short of the apportioned targets by construction.
	targets := testTargets(t, blocksPerObject)
	want := len(moved)
	for i, o := range objs {
		if slices.Contains(moved, i) {
			continue
		}
		shard, err := f.placed.Shard(o.obj)
		if err != nil {
			t.Fatal(err)
		}
		audit, err := repair.AuditFleet(ctx, shard, repair.AuditConfig{Object: o.obj, Targets: targets})
		if err != nil {
			t.Fatal(err)
		}
		if len(audit.Deficient()) > 0 {
			want++
		}
	}

	m, err := New(f.placed, Config{
		Scheme:  core.PLC,
		Levels:  levels,
		Targets: targets,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.RunOnce(ctx)
	if err != nil {
		t.Fatalf("heal round: %v", err)
	}
	if got := len(rep.Plan.Objects); got != want {
		t.Fatalf("planned %d objects, want the %d displaced or short", got, want)
	}
	if rep.Migrated != want || rep.Failed != 0 {
		t.Fatalf("healed %d, failed %d, want %d/0", rep.Migrated, rep.Failed, want)
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

// TestPlanRefillsShortObject: an object no join displaced but whose
// owners hold too few copies is planned at its first deficient level,
// with no stale holder, and refilled in place — a repair step, nothing
// verified or released — while a fleet with nothing short and nothing
// displaced plans nothing.
func TestPlanRefillsShortObject(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, 2, 2, 3)
	levels, _, blocks := testCode(t, 3, 24)
	obj := core.NamedObject("short")
	exact := make([]int, levels.Count())
	for _, b := range blocks {
		b.Object = obj
		exact[b.Level]++
	}
	if _, err := f.placed.PutAll(ctx, blocks); err != nil {
		t.Fatal(err)
	}
	round := func(m *Mover) Report {
		t.Helper()
		rep, err := m.RunOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	newMover := func(targets []int) *Mover {
		t.Helper()
		m, err := New(f.placed, Config{Scheme: core.PLC, Levels: levels, Targets: targets, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Targets at the put-time draw: every owner is whole.
	if rep := round(newMover(exact)); len(rep.Plan.Objects) != 0 {
		t.Fatalf("a whole, placed fleet planned %+v", rep.Plan.Objects)
	}

	// Two more last-level blocks wanted: only level 2 is short.
	short := slices.Clone(exact)
	short[2] += 2
	m := newMover(short)
	rep := round(m)
	if len(rep.Plan.Objects) != 1 {
		t.Fatalf("planned %d objects, want the short one", len(rep.Plan.Objects))
	}
	if op := rep.Plan.Objects[0]; op.Object != obj || len(op.Stale) != 0 || op.Critical != 2 {
		t.Fatalf("plan %+v, want %s at critical level 2 with no stale holder", op, obj)
	}
	if rep.Migrated != 1 || rep.Regenerated+rep.Copied != 2 || rep.DeletesIssued != 0 {
		t.Fatalf("healed %d objects with %d+%d blocks and %d deletes, want 1 with 2 and 0",
			rep.Migrated, rep.Regenerated, rep.Copied, rep.DeletesIssued)
	}
	if rep := round(m); len(rep.Plan.Objects) != 0 {
		t.Fatalf("refilled object still planned: %+v", rep.Plan.Objects)
	}
}

// TestHealObjectRefusesMovedOwners: when a join moves an object's owners
// between the plan and its heal step, the step places nothing on the
// owners the plan saw, and the next round heals the object where it now
// lives.
func TestHealObjectRefusesMovedOwners(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, 3, 2, 3)
	obj := core.NamedObject(pickMovingNames(t, f, 1)[0])
	levels, _, blocks := testCode(t, 9, 24)
	for _, b := range blocks {
		b.Object = obj
	}
	if _, err := f.placed.PutAll(ctx, blocks); err != nil {
		t.Fatal(err)
	}
	targets := testTargets(t, 24)
	targets[0] += 4 // short on level 0 whatever the draw
	m, err := New(f.placed, Config{Scheme: core.PLC, Levels: levels, Targets: targets, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Objects) != 1 {
		t.Fatalf("planned %d objects, want the short one", len(plan.Objects))
	}
	if err := f.placed.Join(f.addrs[2]); err != nil {
		t.Fatal(err)
	}
	var tally repair.Tally
	if err := m.healObject(ctx, plan.Objects[0], &tally); err == nil || tally.BytesPlaced != 0 {
		t.Fatalf("heal over moved owners: err %v, placed %d bytes", err, tally.BytesPlaced)
	}
	rep, err := m.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrated != 1 || rep.DeletesIssued == 0 {
		t.Fatalf("next round healed %d objects with %d deletes, want 1 with a release", rep.Migrated, rep.DeletesIssued)
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
		Scheme:   core.PLC,
		Levels:   levels,
		Targets:  testTargets(t, 16),
		Interval: time.Hour, // only Kick can trigger further rounds
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{}, 1)
	heal := m.round
	m.round = func(ctx context.Context) (*Report, error) {
		rep, err := heal(ctx)
		select { // never block a round: RunOnce holds the mover's lock
		case ran <- struct{}{}:
		default:
		}
		return rep, err
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

	timeout := time.After(5 * time.Second)
	select {
	case <-ran:
	case <-timeout:
		t.Fatal("initial round never ran")
	}
	if err := f.placed.Join(f.addrs[2]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
	case <-timeout:
		t.Fatalf("join did not kick a round within the deadline (still %d)", m.Rounds())
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
		x, y := a[i], b[i]
		if x.Level != y.Level || !bytes.Equal(x.DenseCoeff(), y.DenseCoeff()) || !bytes.Equal(x.Payload, y.Payload) {
			t.Fatalf("SortBlocks not order-insensitive at %d", i)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Level > a[i].Level {
			t.Fatal("SortBlocks did not order by level")
		}
	}
}
