package repair

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestDaemonConcurrentWithPuts runs the daemon loop against concurrent
// client writes and churn. It asserts nothing beyond "no error, no
// deadlock" — its job is to give the race detector (go test -race) a
// dense interleaving of daemon rounds, puts, collects, and a kill/heal.
func TestDaemonConcurrentWithPuts(t *testing.T) {
	levels, _, blocks, targets := testCode(t, 41, 36)
	f := newFleet(t, 3, levels.Count())
	cfg := f.seed(levels, blocks[:12], targets)
	cfg.Interval = time.Millisecond
	d, err := New(f.repl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()

	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(blocks); i += 3 {
				if err := f.repl.Put(ctx, blocks[i]); err != nil {
					t.Errorf("concurrent put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := f.collect(ctx, 0); err != nil {
				t.Errorf("concurrent collect: %v", err)
				return
			}
			d.LastReport()
			d.Rounds()
		}
	}()
	wg.Wait()

	f.kill(1)
	f.heal(1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		audit, err := AuditFleet(ctx, f.repl, AuditConfig{Targets: targets})
		if err == nil && audit.Levels[0].Deficit == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon did not repair the critical level under concurrency")
		}
		time.Sleep(time.Millisecond)
	}

	stopCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Stop(stopCtx); err != nil {
		t.Fatalf("stop: %v", err)
	}
}
