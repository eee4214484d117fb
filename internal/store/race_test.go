package store

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestClientConcurrentUse hammers one Client (one pool) from many
// goroutines mixing puts, gets and stats. Run under -race (make check)
// to verify pool and jitter-rng synchronization.
func TestClientConcurrentUse(t *testing.T) {
	srv := newTestServer(t, ServerConfig{MaxConns: 32})
	cl := newTestClient(t, srv.Addr(), nil)
	ctx := context.Background()

	const goroutines, perG = 8, 24
	levels, _, _ := testCode(t, 1)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Distinct payload per (goroutine, i): dedup keeps none.
				b := &core.CodedBlock{
					Level:   g % levels.Count(),
					Coeff:   make([]byte, levels.Total()),
					Payload: []byte(fmt.Sprintf("g%02d-i%02d", g, i)),
				}
				b.Coeff[0] = byte(1 + g)
				b.Coeff[levels.Total()-1] = byte(1 + i)
				if err := cl.Put(ctx, b); err != nil {
					errCh <- fmt.Errorf("put g%d i%d: %w", g, i, err)
					return
				}
				switch i % 3 {
				case 0:
					if _, err := cl.GetObject(ctx, core.ZeroObject, -1); err != nil {
						errCh <- fmt.Errorf("get g%d i%d: %w", g, i, err)
						return
					}
				case 1:
					if _, err := cl.Stat(ctx); err != nil {
						errCh <- fmt.Errorf("stat g%d i%d: %w", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got, want := srv.Len(), goroutines*perG; got != want {
		t.Fatalf("server holds %d blocks, want %d", got, want)
	}
}

// TestReplicatedConcurrentUse drives a replicated store from concurrent
// writers and readers over shared per-replica pools.
func TestReplicatedConcurrentUse(t *testing.T) {
	servers := make([]*Server, 3)
	clients := make([]*Client, 3)
	for i := range servers {
		servers[i] = newTestServer(t, ServerConfig{MaxConns: 32})
		clients[i] = newTestClient(t, servers[i].Addr(), nil)
	}
	repl, err := NewReplicated(clients, 2, ReplicatedConfig{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, blocks := testCode(t, 64)
	ctx := context.Background()

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(blocks); i += 4 {
				if err := repl.Put(ctx, blocks[i]); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := repl.CollectObject(ctx, core.ZeroObject, -1); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	got, err := repl.CollectObject(ctx, core.ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("collected %d distinct blocks, want %d", len(got), len(blocks))
	}
}
