package mover

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/repair"
	"repro/internal/store"
)

// stubPlaced returns a one-node placement ring that nothing listens
// behind, for tests that never reach a fleet, and testCode's levels.
func stubPlaced(t *testing.T) (*store.Placed, *core.Levels) {
	t.Helper()
	cl, err := store.NewClient(store.ClientConfig{Addr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	levels, _, _ := testCode(t, 1, 1)
	placed, err := store.NewPlaced([]*store.Client{cl}, levels.Count(), store.PlacedConfig{Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { placed.Close() })
	return placed, levels
}

// stubMover returns a stopped mover whose rounds are round: the
// schedule's tests drive the loop, not a fleet.
func stubMover(t *testing.T, interval time.Duration, round func(context.Context) (*Report, error)) *Mover {
	t.Helper()
	placed, levels := stubPlaced(t)
	m, err := New(placed, Config{Scheme: core.PLC, Levels: levels, Targets: testTargets(t, 16), Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	m.round = round
	return m
}

// TestHealSeriesCatalog pins the names each healer registers on a fresh
// registry (DESIGN.md §10 and §15): the mover's round, schedule, fill
// and own series, and the repair daemon's round and fill series — it
// has no schedule, so no backoff gauges.
func TestHealSeriesCatalog(t *testing.T) {
	names := func(reg *metrics.Registry) []string {
		snap := reg.Snapshot()
		var out []string
		for _, c := range snap.Counters {
			out = append(out, c.Name)
		}
		for _, g := range snap.Gauges {
			out = append(out, g.Name)
		}
		for _, h := range snap.Histograms {
			out = append(out, h.Name)
		}
		slices.Sort(out)
		return out
	}
	placed, levels := stubPlaced(t)
	targets := testTargets(t, 16)
	moverReg, repairReg := metrics.NewRegistry(), metrics.NewRegistry()
	if _, err := New(placed, Config{Scheme: core.PLC, Levels: levels, Targets: targets, Metrics: moverReg}); err != nil {
		t.Fatal(err)
	}
	if _, err := repair.NewObject(placed, core.NamedObject("catalog"),
		repair.Config{Scheme: core.PLC, Levels: levels, Targets: targets, Metrics: repairReg}); err != nil {
		t.Fatal(err)
	}
	wantMover := []string{
		"mover_backoff_ns",
		"mover_blocks_copied_total",
		"mover_blocks_reclaimed_total",
		"mover_blocks_regenerated_total",
		"mover_bytes_collected_total",
		"mover_bytes_placed_total",
		"mover_consecutive_failures",
		"mover_copies_placed_total",
		"mover_deletes_issued_total",
		"mover_kicks_total",
		"mover_levels_skipped_total",
		"mover_object_errors_total",
		"mover_objects_migrated_total",
		"mover_objects_planned_total",
		"mover_objects_skipped_total",
		"mover_round_errors_total",
		"mover_round_ns",
		"mover_rounds_total",
		"mover_throttle_wait_ns",
	}
	wantRepair := []string{
		"repair_blocks_regenerated_total",
		"repair_bytes_collected_total",
		"repair_bytes_placed_total",
		"repair_copies_placed_total",
		"repair_levels_skipped_total",
		"repair_round_errors_total",
		"repair_round_ns",
		"repair_rounds_total",
		"repair_rounds_truncated_total",
	}
	if got := names(moverReg); !slices.Equal(got, wantMover) {
		t.Errorf("mover series:\n got  %q\n want %q", got, wantMover)
	}
	if got := names(repairReg); !slices.Equal(got, wantRepair) {
		t.Errorf("repair series:\n got  %q\n want %q", got, wantRepair)
	}
}

func TestNextWait(t *testing.T) {
	const iv = 100 * time.Millisecond
	cases := []struct {
		failures int
		want     time.Duration
	}{
		{0, iv}, // success
		{1, iv}, // the first failure retries at the normal pace
		{2, 2 * iv},
		{3, 4 * iv},
		{4, 8 * iv},
		{5, 16 * iv},
		{6, 16 * iv}, // capped at backoffCap x interval
		{60, 16 * iv},
	}
	for _, c := range cases {
		if got := nextWait(iv, c.failures); got != c.want {
			t.Errorf("nextWait(%v, %d) = %v, want %v", iv, c.failures, got, c.want)
		}
	}
}

func TestJitteredBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const w = time.Second
	lo, hi := w, time.Duration(0)
	for i := 0; i < 10000; i++ {
		got := jittered(rng, w)
		if got < w*8/10 || got > w {
			t.Fatalf("jittered(%v) = %v, outside [0.8w, w]", w, got)
		}
		lo, hi = min(lo, got), max(hi, got)
	}
	if lo > w*81/100 || hi < w*99/100 {
		t.Fatalf("jitter does not spread: [%v, %v] over 10000 draws", lo, hi)
	}
}

// TestLoopStopBeatsKick pins the select fix without sleeping: a Stop and
// a Kick issued while a round is in flight must not start another round
// once it returns — before the fix select chose between the closed stop
// channel and the pending kick at random.
func TestLoopStopBeatsKick(t *testing.T) {
	for i := 0; i < 50; i++ {
		entered, release := make(chan struct{}, 4), make(chan struct{})
		m := stubMover(t, time.Hour, func(context.Context) (*Report, error) {
			entered <- struct{}{}
			<-release
			return &Report{}, nil
		})
		m.Start()
		<-entered
		stopped := make(chan error, 1)
		go func() { stopped <- m.Stop(context.Background()) }()
		<-m.stop // Stop has been issued
		m.Kick()
		close(release)
		if err := <-stopped; err != nil {
			t.Fatal(err)
		}
		if got := m.Rounds(); got != 1 {
			t.Fatalf("iteration %d: %d rounds ran, want exactly 1", i, got)
		}
	}
}

// TestLoopKeepsLastReport checks the report contract of a round: nil
// (failed before having a report) leaves LastReport alone.
func TestLoopKeepsLastReport(t *testing.T) {
	fail := false
	m := stubMover(t, time.Hour, func(context.Context) (*Report, error) {
		if fail {
			return nil, errors.New("no report")
		}
		return &Report{Migrated: 7}, nil
	})
	ctx := context.Background()
	if got, err := m.RunOnce(ctx); got.Migrated != 7 || err != nil {
		t.Fatalf("RunOnce = %+v, %v", got, err)
	}
	fail = true
	if got, err := m.RunOnce(ctx); got.Migrated != 0 || err == nil {
		t.Fatalf("failed RunOnce = %+v, %v, want an empty report and an error", got, err)
	}
	if got := m.LastReport(); got.Migrated != 7 {
		t.Fatalf("LastReport = %+v after a reportless round, want Migrated 7", got)
	}
	if m.Rounds() != 2 {
		t.Fatalf("Rounds = %d, want 2", m.Rounds())
	}
}

// TestMoverStartStop runs the loop until it has driven two rounds,
// then stops it twice. A returned Stop means the loop goroutine has
// exited, so no round can follow it.
func TestMoverStartStop(t *testing.T) {
	ran := make(chan struct{}, 1)
	m := stubMover(t, time.Millisecond, func(context.Context) (*Report, error) {
		select {
		case ran <- struct{}{}:
		default:
		}
		return &Report{}, nil
	})
	m.Start()
	m.Start() // idempotent
	timeout := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-ran:
		case <-timeout:
			t.Fatalf("the loop ran %d rounds in 5s", m.Rounds())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Stop(ctx); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
	if err := m.Stop(ctx); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	select {
	case <-m.done:
	default:
		t.Fatal("Stop returned with the loop still running")
	}
}

func TestMoverStopBeforeStart(t *testing.T) {
	m := stubMover(t, time.Hour, func(context.Context) (*Report, error) {
		t.Error("a stopped mover ran a round")
		return nil, nil
	})
	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("stop before start: %v", err)
	}
}

// TestMoverBacksOffWhileDark drives dark rounds with RunOnce — not the
// clock — and checks each returns an error and raises the backoff
// state the loop schedules from; the schedule itself is TestNextWait's.
func TestMoverBacksOffWhileDark(t *testing.T) {
	dialer := store.NewFaultDialer(nil, store.FaultConfig{Seed: 1})
	f := newTestFleetOver(t, 2, 2, 3, dialer)
	levels, _, _ := testCode(t, 20, 1)
	reg := metrics.NewRegistry()
	const interval = time.Millisecond
	m, err := New(f.placed, Config{Scheme: core.PLC, Levels: levels, Targets: testTargets(t, 12),
		Interval: interval, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	failures := reg.Gauge("mover_consecutive_failures")
	backoff := reg.Gauge("mover_backoff_ns")
	for _, addr := range f.addrs {
		dialer.Partition(addr)
	}
	ctx := context.Background()
	for n := 1; n <= 3; n++ {
		if _, err := m.RunOnce(ctx); err == nil {
			t.Fatalf("dark round %d succeeded", n)
		}
		if got := failures.Value(); got != int64(n) {
			t.Fatalf("after %d dark rounds mover_consecutive_failures = %d", n, got)
		}
		if got, want := backoff.Value(), int64(nextWait(interval, n)); got != want {
			t.Fatalf("after %d dark rounds mover_backoff_ns = %d, want %d", n, got, want)
		}
	}
	if got := reg.Counter("mover_round_errors_total").Value(); got != 3 {
		t.Fatalf("mover_round_errors_total = %d, want 3", got)
	}
	for _, addr := range f.addrs {
		dialer.Heal(addr)
	}
	if _, err := m.RunOnce(ctx); err != nil {
		t.Fatalf("healed fleet still errors: %v", err)
	}
	if failures.Value() != 0 || backoff.Value() != int64(interval) {
		t.Fatalf("healed round left backoff state at %d failures, %v wait", failures.Value(), time.Duration(backoff.Value()))
	}
}

// TestStopCancelsInFlightRound checks Stop's deadline: a round still
// running when Stop's context expires is cancelled, and Stop returns
// the context's error once the loop has exited.
func TestStopCancelsInFlightRound(t *testing.T) {
	entered := make(chan struct{})
	m := stubMover(t, time.Hour, func(ctx context.Context) (*Report, error) {
		close(entered)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	m.Start()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Stop(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Stop = %v, want the deadline's error", err)
	}
}
