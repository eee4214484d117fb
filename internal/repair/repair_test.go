package repair

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/store"
)

// --- helpers ---------------------------------------------------------------

// testCode builds a 3-level PLC code (3 critical + 5 + 8 bulk source
// blocks of 32 bytes) and n coded blocks from a fixed seed, returning
// the exact per-level distinct counts the batch drew.
func testCode(t *testing.T, seed int64, n int) (*core.Levels, [][]byte, []*core.CodedBlock, []int) {
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
	targets := make([]int, levels.Count())
	for _, b := range blocks {
		targets[b.Level]++
	}
	return levels, sources, blocks, targets
}

var testDist = core.PriorityDistribution{0.3, 0.3, 0.4}

// fleet is a small replicated deployment over an in-process fault
// network, with enough handles to kill, wipe, and resurrect replicas.
type fleet struct {
	t       *testing.T
	servers []*store.Server
	addrs   []string
	dialer  *store.FaultDialer
	repl    *store.Replicated
}

func newFleet(t *testing.T, n, levels int) *fleet { return newFleetOver(t, n, levels, nil) }

// newFleetOver is newFleet with the fault network layered over base
// (nil for a plain net.Dialer).
func newFleetOver(t *testing.T, n, levels int, base store.Dialer) *fleet {
	t.Helper()
	f := &fleet{
		t:       t,
		servers: make([]*store.Server, n),
		addrs:   make([]string, n),
		dialer:  store.NewFaultDialer(base, store.FaultConfig{Seed: 1}),
	}
	clients := make([]*store.Client, n)
	for i := 0; i < n; i++ {
		srv, err := store.NewServer(store.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		f.servers[i] = srv
		f.addrs[i] = srv.Addr()
		cl, err := store.NewClient(store.ClientConfig{
			Addr:      srv.Addr(),
			Dialer:    f.dialer,
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
	repl, err := store.NewReplicated(clients, levels, store.ReplicatedConfig{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.repl = repl
	t.Cleanup(func() {
		repl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		for _, s := range f.servers {
			if s != nil {
				s.Shutdown(ctx)
			}
		}
	})
	return f
}

// kill partitions replica i and wipes its data by replacing the server
// with a fresh empty one on the same address — a node death plus a
// blank-disk replacement, the churn the repair daemon exists for.
func (f *fleet) kill(i int) {
	f.t.Helper()
	f.killOnto(i, nil)
}

// killOnto is kill with the replacement serving engine (nil for a fresh
// MemStore).
func (f *fleet) killOnto(i int, engine store.BlockStore) {
	f.t.Helper()
	f.dialer.Partition(f.addrs[i])
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := f.servers[i].Shutdown(ctx); err != nil {
		f.t.Fatalf("kill replica %d: %v", i, err)
	}
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		f.servers[i], err = store.NewServer(store.ServerConfig{Addr: f.addrs[i], Blocks: engine})
		if err == nil {
			return
		}
		time.Sleep(10 * time.Millisecond) // port may linger briefly after close
	}
	f.t.Fatalf("resurrect replica %d on %s: %v", i, f.addrs[i], err)
}

// heal lifts replica i's partition, making the (empty) replacement node
// reachable again.
func (f *fleet) heal(i int) { f.dialer.Heal(f.addrs[i]) }

// collect reads the fleet's object — the key-less object zero every
// test here puts — with level <= maxLevel, deduplicated.
func (f *fleet) collect(ctx context.Context, maxLevel int) ([]*core.CodedBlock, error) {
	return f.repl.CollectObject(ctx, core.ZeroObject, maxLevel)
}

// seed puts blocks and returns the daemon config matching the draw.
func (f *fleet) seed(levels *core.Levels, blocks []*core.CodedBlock, targets []int) Config {
	f.t.Helper()
	ctx := context.Background()
	for _, b := range blocks {
		if err := f.repl.Put(ctx, b); err != nil {
			f.t.Fatal(err)
		}
	}
	return Config{
		Scheme:  core.PLC,
		Levels:  levels,
		Targets: targets,
		Seed:    7,
	}
}

func decodeAll(t *testing.T, levels *core.Levels, blocks []*core.CodedBlock) *core.Decoder {
	t.Helper()
	dec, err := core.NewDecoder(core.PLC, levels, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if _, err := dec.Add(b); err != nil {
			t.Fatalf("decoder rejected collected block: %v", err)
		}
	}
	return dec
}

func checkCriticalLevel(t *testing.T, dec *core.Decoder, levels *core.Levels, sources [][]byte) {
	t.Helper()
	if !dec.LevelDecoded(0) {
		t.Fatalf("critical level not decoded (%d/%d blocks)", dec.DecodedBlocks(), levels.Total())
	}
	for i := 0; i < levels.Size(0); i++ {
		got, err := dec.Source(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, sources[i]) {
			t.Fatalf("critical block %d corrupted", i)
		}
	}
}

// --- targets --------------------------------------------------------------

func TestDistinctTargets(t *testing.T) {
	if err := checkTargets([]int{4, 6}, 2); err != nil {
		t.Fatalf("explicit targets rejected: %v", err)
	}
	if err := checkTargets([]int{4, 6}, 3); err == nil {
		t.Fatal("target/level length mismatch accepted")
	}
	if err := checkTargets([]int{4, -1}, 2); err == nil {
		t.Fatal("negative target accepted")
	}
	if err := checkTargets(nil, 2); err == nil {
		t.Fatal("missing targets accepted")
	}
	got, err := dist.Apportion(core.PriorityDistribution{0.25, 0.75}, 8)
	if err != nil || !reflect.DeepEqual(got, []int{2, 6}) {
		t.Fatalf("apportioned targets = %v, %v", got, err)
	}
}

// --- audit -----------------------------------------------------------------

func TestAuditFleetHealthy(t *testing.T) {
	levels, _, blocks, targets := testCode(t, 11, 24)
	f := newFleet(t, 3, levels.Count())
	cfg := f.seed(levels, blocks, targets)
	audit, err := AuditFleet(context.Background(), f.repl, AuditConfig{Targets: cfg.Targets})
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Healthy() {
		t.Fatalf("freshly provisioned fleet not healthy: %+v", audit)
	}
	if audit.Reachable != 3 || audit.Unreachable != 0 {
		t.Fatalf("reachability %d/%d, want 3/0", audit.Reachable, audit.Unreachable)
	}
	for _, lr := range audit.Levels {
		if lr.Replicas != f.repl.ReplicasFor(lr.Level) {
			t.Fatalf("level %d replicas = %d, want %d", lr.Level, lr.Replicas, f.repl.ReplicasFor(lr.Level))
		}
		if lr.WantCopies != lr.Distinct*lr.Replicas {
			t.Fatalf("level %d WantCopies = %d, want %d", lr.Level, lr.WantCopies, lr.Distinct*lr.Replicas)
		}
		if lr.Deficit != 0 {
			t.Fatalf("level %d deficit %d on a healthy fleet", lr.Level, lr.Deficit)
		}
	}
}

func TestAuditFleetSeesDeadReplica(t *testing.T) {
	levels, _, blocks, targets := testCode(t, 12, 24)
	f := newFleet(t, 3, levels.Count())
	f.seed(levels, blocks, targets)
	f.dialer.Partition(f.addrs[2]) // dark, data intact — still a deficit
	audit, err := AuditFleet(context.Background(), f.repl, AuditConfig{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if audit.Reachable != 2 || audit.Unreachable != 1 {
		t.Fatalf("reachability %d/%d, want 2/1", audit.Reachable, audit.Unreachable)
	}
	if audit.Healthy() {
		t.Fatal("fleet with a dark replica reported healthy")
	}
	// Level 0 lives on all three replicas, so one dark replica costs
	// exactly Distinct copies.
	lr := audit.Levels[0]
	if lr.Deficit != lr.Distinct {
		t.Fatalf("level 0 deficit = %d, want %d", lr.Deficit, lr.Distinct)
	}
	if lr.PerReplica[2] != -1 {
		t.Fatalf("dark replica tallied %d, want -1", lr.PerReplica[2])
	}
	if got := audit.Deficient(); len(got) == 0 || got[0].Level != 0 {
		t.Fatalf("deficient levels %v, want most-critical first", got)
	}
}

// --- daemon ----------------------------------------------------------------

func TestNewValidation(t *testing.T) {
	levels, _, _, targets := testCode(t, 13, 8)
	f := newFleet(t, 2, levels.Count())
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := New(f.repl, Config{Scheme: core.Scheme(99), Levels: levels, Targets: targets}); err == nil {
		t.Fatal("invalid scheme accepted")
	}
	if _, err := New(f.repl, Config{Scheme: core.PLC, Targets: targets}); err == nil {
		t.Fatal("nil levels accepted")
	}
	two, err := core.NewLevels(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(f.repl, Config{Scheme: core.PLC, Levels: two, Targets: []int{1, 1}}); err == nil {
		t.Fatal("level-count mismatch accepted")
	}
	if _, err := New(f.repl, Config{Scheme: core.PLC, Levels: levels, Targets: []int{1, 1}}); err == nil {
		t.Fatal("bad targets accepted")
	}
	d, err := New(f.repl, Config{Scheme: core.PLC, Levels: levels, Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if d.heal.Budget <= 0 {
		t.Fatalf("defaults not filled: budget %d", d.heal.Budget)
	}
}

func TestRunOnceHealthyIsNoop(t *testing.T) {
	levels, _, blocks, targets := testCode(t, 14, 24)
	f := newFleet(t, 3, levels.Count())
	d, err := New(f.repl, f.seed(levels, blocks, targets))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regenerated != 0 || rep.BytesCollected != 0 || rep.Truncated {
		t.Fatalf("healthy round did work: %+v", rep)
	}
	if !rep.Audit.Healthy() {
		t.Fatal("the report lost the audit")
	}
}

func TestRunOnceRepairsWipedReplica(t *testing.T) {
	levels, sources, blocks, targets := testCode(t, 15, 24)
	f := newFleet(t, 3, levels.Count())
	d, err := New(f.repl, f.seed(levels, blocks, targets))
	if err != nil {
		t.Fatal(err)
	}
	f.kill(2)
	f.heal(2) // blank replacement node, reachable

	ctx := context.Background()
	before, err := AuditFleet(ctx, f.repl, AuditConfig{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if before.TotalDeficit() == 0 {
		t.Fatal("wiping a replica produced no deficit")
	}
	for deficit, rounds := before.TotalDeficit(), 0; deficit > 0; rounds++ {
		if rounds > 8 {
			t.Fatalf("deficit stuck at %d after %d rounds", deficit, rounds)
		}
		rep, err := d.RunOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Regenerated == 0 && deficit > 0 && !rep.Truncated {
			t.Fatalf("round regenerated nothing against deficit %d: %+v", deficit, rep)
		}
		after, err := AuditFleet(ctx, f.repl, AuditConfig{Targets: targets})
		if err != nil {
			t.Fatal(err)
		}
		deficit = after.TotalDeficit()
	}

	// The repaired fleet must decode fully even if the two old replicas
	// die: only the regenerated blocks on the replacement node plus one
	// survivor's worth of redundancy remain.
	got, err := f.collect(ctx, -1)
	if err != nil {
		t.Fatal(err)
	}
	dec := decodeAll(t, levels, got)
	checkCriticalLevel(t, dec, levels, sources)
	if !dec.Complete() {
		t.Fatalf("repaired fleet decodes %d/%d levels", dec.DecodedLevels(), levels.Count())
	}
}

func TestRunOnceBudgetSpentMostCriticalFirst(t *testing.T) {
	levels, _, blocks, targets := testCode(t, 16, 24)
	f := newFleet(t, 3, levels.Count())
	cfg := f.seed(levels, blocks, targets)
	// Wiping replica 0 costs level 0 exactly targets[0] copies (it is
	// replicated everywhere); each regenerated block restores Replicas
	// copies, so this budget repairs the critical level and nothing else.
	cfg.BlockBudget = (targets[0] + f.repl.ReplicasFor(0) - 1) / f.repl.ReplicasFor(0)
	d, err := New(f.repl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.kill(0)
	f.heal(0)
	ctx := context.Background()
	rep, err := d.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatalf("budget %d did not truncate the round: %+v", cfg.BlockBudget, rep)
	}
	audit, err := AuditFleet(ctx, f.repl, AuditConfig{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if audit.Levels[0].Deficit != 0 {
		t.Fatalf("critical level still deficient (%d) while budget went elsewhere", audit.Levels[0].Deficit)
	}
	if audit.Levels[2].Deficit == 0 {
		t.Fatal("bulk level repaired before the budget ran out — priority order violated")
	}
}

func TestRunOnceAllDarkErrors(t *testing.T) {
	levels, _, blocks, targets := testCode(t, 17, 12)
	f := newFleet(t, 2, levels.Count())
	d, err := New(f.repl, f.seed(levels, blocks, targets))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.addrs {
		f.dialer.Partition(f.addrs[i])
	}
	if _, err := d.RunOnce(context.Background()); err == nil {
		t.Fatal("fully dark fleet repaired successfully")
	}
	for i := range f.addrs {
		f.dialer.Heal(f.addrs[i])
	}
	if _, err := d.RunOnce(context.Background()); err != nil {
		t.Fatalf("healed fleet still errors: %v", err)
	}
}
