package repair

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// TestMetricsSharedAcrossLayersRace is the whole-stack data-race canary
// for the observability seam: one registry is updated concurrently by
// instrumented server goroutines, retrying clients, and a
// running repair daemon, while a reader keeps snapshotting and rendering
// it. Run under -race via the Makefile check target.
func TestMetricsSharedAcrossLayersRace(t *testing.T) {
	reg := metrics.NewRegistry()
	const replicas = 3

	// Every client write is delayed up to 6ms so the clients' gets overlap
	// the daemon's rounds and one another.
	slow := store.NewFaultDialer(nil, store.FaultConfig{
		Seed:      11,
		DelayProb: 1,
		MaxDelay:  6 * time.Millisecond,
	})
	servers := make([]*store.Server, replicas)
	clients := make([]*store.Client, replicas)
	for i := range servers {
		srv, err := store.NewServer(store.ServerConfig{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		cl, err := store.NewClient(store.ClientConfig{
			Addr:      srv.Addr(),
			Dialer:    slow,
			OpTimeout: 5 * time.Second,
			Retry:     store.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
			Metrics:   reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	repl, err := store.NewReplicated(clients, 3, store.ReplicatedConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()

	levels, _, blocks, targets := testCode(t, 7, 24)
	ctx := context.Background()
	if _, err := repl.PutAll(ctx, blocks); err != nil {
		t.Fatal(err)
	}

	d, err := New(repl, Config{
		Scheme:   core.PLC,
		Levels:   levels,
		Targets:  targets,
		Interval: time.Millisecond,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.Stop(sctx); err != nil {
			t.Errorf("daemon stop: %v", err)
		}
	}()

	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *store.Client) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := cl.GetObject(ctx, core.ZeroObject, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(cl)
	}
	wg.Add(1)
	go func() { // concurrent reader: snapshots and both renderings
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			if !reg.Snapshot().Empty() {
				if err := metrics.ValidatePromText(strings.NewReader(sb.String())); err != nil {
					t.Errorf("prometheus output invalid mid-run: %v", err)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	if reg.Counter("repair_rounds_total").Value() == 0 {
		t.Error("repair daemon recorded no rounds")
	}
	if got := reg.Counter(`store_server_requests_total{op="put"}`).Value(); got == 0 {
		t.Error("server recorded no puts")
	}
}
