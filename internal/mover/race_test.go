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

// TestMoverRepairPutRace runs the mover daemon, a repair daemon, and a
// stream of foreground puts over the same placement layer while a node
// joins mid-load — the full contention triangle the migration layer
// must survive under the race detector, with zero client-visible
// errors.
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
	f.placed.SetMembershipHook(m.Kick)
	m.Start()

	rd, err := repair.NewObject(f.placed, obj, repair.Config{
		Scheme:   core.PLC,
		Levels:   levels,
		Targets:  testTargets(t, blocksPerObject),
		Interval: 20 * time.Millisecond,
		Seed:     41,
	})
	if err != nil {
		t.Fatal(err)
	}
	rd.Start()

	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
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
				if _, err := f.placed.Collect(ctx, o, 0); err != nil {
					errCh <- fmt.Errorf("collect during churn: %w", err)
					return
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	if err := f.placed.Join(f.addrs[2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)

	close(stop)
	wg.Wait()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Stop(sctx); err != nil {
		t.Fatalf("mover stop: %v", err)
	}
	if err := rd.Stop(sctx); err != nil {
		t.Fatalf("repair stop: %v", err)
	}
	select {
	case err := <-errCh:
		t.Fatalf("client-visible error during migration: %v", err)
	default:
	}
	if m.Rounds() == 0 {
		t.Fatal("mover never ran a round")
	}
}
