package mover

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/repair"
)

// TestMoverRepairPutRace runs the mover's loop, a repair daemon's
// rounds from a goroutine, and a stream of foreground puts over the
// same placement layer while a node joins mid-load — the full
// contention triangle the migration layer must survive under the race
// detector, with zero client-visible errors.
func TestMoverRepairPutRace(t *testing.T) {
	ctx := context.Background()
	const blocksPerObject = 16
	f := newTestFleet(t, 3, 2, 3)

	levels, _, seedBlocks := testCode(t, 21, blocksPerObject)
	obj := core.NamedObject("race-seed")
	for _, b := range seedBlocks {
		b.Object = obj
	}
	if _, err := f.placed.PutAll(ctx, seedBlocks); err != nil {
		t.Fatal(err)
	}

	m, err := New(f.placed, Config{
		Scheme:    core.PLC,
		Levels:    levels,
		Targets:   testTargets(t, blocksPerObject),
		Interval:  20 * time.Millisecond,
		RateLimit: 8 << 20,
		Seed:      31,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ran hears of finished mover rounds, so the test waits on rounds
	// rather than on the clock; a signal the test is not waiting for is
	// dropped, and the next round sends another.
	ran := make(chan struct{}, 1)
	heal := m.round
	m.round = func(ctx context.Context) (*Report, error) {
		rep, err := heal(ctx)
		select {
		case ran <- struct{}{}:
		default:
		}
		return rep, err
	}
	f.placed.SetMembershipHook(m.Kick)
	m.Start()

	rd, err := repair.NewObject(f.placed, obj, repair.Config{
		Scheme:  core.PLC,
		Levels:  levels,
		Targets: testTargets(t, blocksPerObject),
		Seed:    41,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errCh := make(chan error, 4)
	loaded := make(chan struct{}, 1) // a foreground put has landed
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the repair daemon, one round per tick; a failed round is retried
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rd.RunOnce(ctx)
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lv, _, blocks := testCode(t, int64(1000+w*100+i), 8)
				_ = lv
				o := core.NamedObject(fmt.Sprintf("race-%d-%d", w, i))
				for _, b := range blocks {
					b.Object = o
				}
				if _, err := f.placed.PutAll(ctx, blocks); err != nil {
					errCh <- fmt.Errorf("put during churn: %w", err)
					return
				}
				select {
				case loaded <- struct{}{}:
				default:
				}
				if _, err := f.placed.Collect(ctx, o, 0); err != nil {
					errCh <- fmt.Errorf("collect during churn: %w", err)
					return
				}
			}
		}(w)
	}

	awaitRounds := func(n int) {
		t.Helper()
		timeout := time.After(10 * time.Second)
		for i := 0; i < n; i++ {
			select {
			case <-ran:
			case <-timeout:
				t.Fatalf("the mover finished %d of %d rounds in 10s", i, n)
			}
		}
	}
	awaitRounds(1)
	select {
	case <-loaded:
	case err := <-errCh:
		t.Fatalf("client-visible error before the join: %v", err)
	}
	if err := f.placed.Join(f.addrs[2]); err != nil {
		t.Fatal(err)
	}
	// The join's kick, then two scheduled rounds, all under load.
	awaitRounds(3)

	close(stop)
	wg.Wait()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Stop(sctx); err != nil {
		t.Fatalf("mover stop: %v", err)
	}
	select {
	case err := <-errCh:
		t.Fatalf("client-visible error during migration: %v", err)
	default:
	}
}
