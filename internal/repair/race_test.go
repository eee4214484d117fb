package repair

import (
	"context"
	"sync"
	"testing"
)

// TestDaemonConcurrentWithPuts runs daemon rounds back to back from a
// goroutine against concurrent client writes and churn. It asserts
// little beyond "no error, no deadlock" — its job is to give the race
// detector (go test -race) a dense interleaving of daemon rounds, puts,
// collects, and a kill/heal — and that rounds then restore the critical
// level.
func TestDaemonConcurrentWithPuts(t *testing.T) {
	levels, _, blocks, targets := testCode(t, 41, 36)
	f := newFleet(t, 3, levels.Count())
	d, err := New(f.repl, f.seed(levels, blocks[:12], targets))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	stop, rounds := make(chan struct{}), make(chan struct{})
	go func() { // rounds racing the puts and the kill may fail; the next retries
		defer close(rounds)
		for {
			select {
			case <-stop:
				return
			default:
				d.RunOnce(ctx)
			}
		}
	}()
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
		}
	}()
	wg.Wait()

	f.kill(1)
	f.heal(1)
	close(stop)
	<-rounds

	for round := 0; ; round++ {
		audit, err := AuditFleet(ctx, f.repl, AuditConfig{Targets: targets})
		if err == nil && audit.Levels[0].Deficit == 0 {
			break
		}
		if round == 8 {
			t.Fatalf("8 rounds after the kill did not repair the critical level (audit err %v)", err)
		}
		d.RunOnce(ctx)
	}
}
