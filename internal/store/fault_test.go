package store

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
)

// faultCluster is one 3-replica deployment behind a shared fault dialer.
type faultCluster struct {
	servers []*Server
	clients []*Client
	dialer  *FaultDialer
	repl    *Replicated
}

func newFaultCluster(t *testing.T, fcfg FaultConfig, levels int) *faultCluster {
	t.Helper()
	fc := &faultCluster{dialer: NewFaultDialer(nil, fcfg)}
	for i := 0; i < 3; i++ {
		srv := newTestServer(t, ServerConfig{})
		cfg := fastClientCfg(srv.Addr(), fc.dialer)
		cfg.Seed = int64(i + 1)
		cl, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		fc.servers = append(fc.servers, srv)
		fc.clients = append(fc.clients, cl)
	}
	repl, err := NewReplicated(fc.clients, levels, ReplicatedConfig{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	fc.repl = repl
	return fc
}

func (fc *faultCluster) kill(t *testing.T, i int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := fc.servers[i].Shutdown(ctx); err != nil {
		t.Fatalf("kill replica %d: %v", i, err)
	}
}

// blockSetKey canonicalizes a block set for cross-run comparison.
func blockSetKey(t *testing.T, blocks []*core.CodedBlock) []string {
	t.Helper()
	keys := make([]string, 0, len(blocks))
	for _, b := range blocks {
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, string(data))
	}
	sort.Strings(keys)
	return keys
}

// TestKillReplicaMidPut loses 1 of 3 replicas halfway through the put
// stream; every put still succeeds and the critical level still decodes.
func TestKillReplicaMidPut(t *testing.T) {
	fc := newFaultCluster(t, FaultConfig{Seed: 11}, 2)
	levels, sources, blocks := testCode(t, 48)
	ctx := context.Background()

	half := len(blocks) / 2
	if n, err := fc.repl.PutAll(ctx, blocks[:half]); err != nil || n != half {
		t.Fatalf("puts before the kill: %d, %v", n, err)
	}
	fc.kill(t, 0)
	if n, err := fc.repl.PutAll(ctx, blocks[half:]); err != nil || n != len(blocks)-half {
		t.Fatalf("puts after the kill must be absorbed by surviving replicas: %d, %v", n, err)
	}

	got, err := fc.repl.CollectObject(ctx, core.ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	checkCriticalLevel(t, decodeAll(t, levels, got), levels, sources)
}

// TestPartitionThenHeal cuts a replica off during the puts, heals it,
// and requires the priority prefix to decode from the healed cluster.
func TestPartitionThenHeal(t *testing.T) {
	fc := newFaultCluster(t, FaultConfig{Seed: 13}, 2)
	levels, sources, blocks := testCode(t, 48)
	ctx := context.Background()

	fc.dialer.Partition(fc.servers[2].Addr())
	if n, err := fc.repl.PutAll(ctx, blocks); err != nil || n != len(blocks) {
		t.Fatalf("puts during the partition: %d, %v", n, err)
	}
	dials, _ := fc.dialer.Injected()
	if dials == 0 {
		t.Fatal("partition injected no dial failures; the test is vacuous")
	}
	fc.dialer.Heal(fc.servers[2].Addr())

	got, err := fc.repl.CollectObject(ctx, core.ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	checkCriticalLevel(t, decodeAll(t, levels, got), levels, sources)
}

// runChurnScenario is the acceptance scenario: 5% frame corruption on
// every client write, replica 0 killed a third of the way through a
// stream of single-block puts. It returns the per-server block counts, the collected set and
// the number of corrupted frames, failing the test on any client-visible
// error.
func runChurnScenario(t *testing.T, seed int64) (counts []int, collected []string, mauled int) {
	t.Helper()
	fc := newFaultCluster(t, FaultConfig{Seed: seed, CorruptProb: 0.05}, 2)
	levels, sources, blocks := testCode(t, 48)
	ctx := context.Background()

	third := len(blocks) / 3
	for i, b := range blocks {
		if i == third {
			fc.kill(t, 0)
		}
		if err := fc.repl.Put(ctx, b); err != nil {
			t.Fatalf("put %d under churn must see zero client-visible errors: %v", i, err)
		}
	}

	got, err := fc.repl.CollectObject(ctx, core.ZeroObject, -1)
	if err != nil {
		t.Fatalf("collect under churn must see zero client-visible errors: %v", err)
	}
	checkCriticalLevel(t, decodeAll(t, levels, got), levels, sources)

	for _, s := range fc.servers {
		counts = append(counts, s.Len())
	}
	_, mauled = fc.dialer.Injected()
	return counts, blockSetKey(t, got), mauled
}

// TestCriticalPrefixSurvivesFaults is the tentpole acceptance criterion:
// with 1 of 3 replicas killed and 5% frame corruption injected, level-1
// (the critical level) decodes with zero client-visible errors — retries
// and backoff absorb every fault — and the outcome is deterministic
// under a fixed seed.
func TestCriticalPrefixSurvivesFaults(t *testing.T) {
	counts1, set1, mauled1 := runChurnScenario(t, 7)
	if mauled1 == 0 {
		t.Fatal("no frames were corrupted; the scenario is vacuous")
	}
	counts2, set2, _ := runChurnScenario(t, 7)

	if len(counts1) != len(counts2) {
		t.Fatalf("replica counts differ in shape: %v vs %v", counts1, counts2)
	}
	for i := range counts1 {
		if counts1[i] != counts2[i] {
			t.Fatalf("replica %d stored %d vs %d blocks across identical seeded runs",
				i, counts1[i], counts2[i])
		}
	}
	if len(set1) != len(set2) {
		t.Fatalf("collected sets differ in size: %d vs %d", len(set1), len(set2))
	}
	for i := range set1 {
		if set1[i] != set2[i] {
			t.Fatalf("collected block %d differs across identical seeded runs", i)
		}
	}
}

// TestCorruptionExhaustsRetries pins the failure mode down: with every
// frame corrupted, the client gives up with ErrStoreUnavailable instead
// of hanging or succeeding silently.
func TestCorruptionExhaustsRetries(t *testing.T) {
	srv := newTestServer(t, ServerConfig{})
	dialer := NewFaultDialer(nil, FaultConfig{Seed: 3, CorruptProb: 1})
	cfg := fastClientCfg(srv.Addr(), dialer)
	cfg.Retry.MaxAttempts = 3
	cl, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, _, blocks := testCode(t, 1)
	if err := cl.Put(context.Background(), blocks[0]); err == nil {
		t.Fatal("total corruption should exhaust retries")
	} else if !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("err = %v, want ErrStoreUnavailable", err)
	}
	if srv.Len() != 0 {
		t.Fatalf("server stored %d corrupt blocks", srv.Len())
	}
}
