package diskstore

import (
	"context"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// TestServerRestartSurvivesTornTail is the disk layer's acceptance
// path, end to end through the daemon: a client streams prioritized
// blocks into a disk-backed store.Server, the daemon dies with a torn
// write in its last segment, and after a restart the critical level
// still decodes bit-exact while the torn tail is truncated, logged,
// and counted.
func TestServerRestartSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	levels, sources, blocks := serverTestCode(t, 80)

	eng, err := Open(dir, Options{Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := store.NewServer(store.ServerConfig{Blocks: eng})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cli, err := store.NewClient(store.ClientConfig{Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cli.PutAll(ctx, blocks); err != nil || n != len(blocks) {
		t.Fatalf("PutAll stored %d/%d: %v", n, len(blocks), err)
	}
	cli.Close()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The daemon owns the engine's lifecycle: close after the drain.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// The "kill": corrupt the last 5% of the last segment, as a crash
	// mid-write would.
	names, _, err := listSegments(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("listSegments: %v", err)
	}
	last := names[len(names)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(raw) - len(raw)/20; i < len(raw); i++ {
		raw[i] ^= 0xA5
	}
	if err := os.WriteFile(last, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: reopen the same directory, serve again.
	reg := metrics.NewRegistry()
	eng2, err := Open(dir, Options{Logf: quiet, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if countVal(t, reg.Snapshot(), "diskstore_torn_tails_truncated_total") != 1 {
		t.Fatal("restart did not count the torn tail")
	}
	srv2, err := store.NewServer(store.ServerConfig{Blocks: eng2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(ctx)
	cli2, err := store.NewClient(store.ClientConfig{Addr: srv2.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()

	got, err := cli2.GetObject(ctx, core.ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(blocks) {
		t.Fatalf("recovered %d of %d blocks, want a non-empty strict subset", len(got), len(blocks))
	}

	// Level 0 — the critical prefix — must decode bit-exact from what
	// survived.
	dec, err := core.NewDecoder(core.PLC, levels, len(sources[0]))
	if err != nil {
		t.Fatal(err)
	}
	res, err := collect.Run(collect.Shuffle(rand.New(rand.NewSource(3)), got), dec, collect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodedLevels < 1 {
		t.Fatalf("level 0 did not decode from %d surviving blocks", len(got))
	}
	lo, hi := levels.Span(0)
	for i := lo; i < hi; i++ {
		payload, err := dec.Source(i)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		if string(payload) != string(sources[i]) {
			t.Fatalf("source %d decoded with wrong bytes after restart", i)
		}
	}
}

// serverTestCode mirrors the store package's testCode helper: a 2-level
// PLC code (4+12 source blocks of 32 bytes) and n coded blocks.
func serverTestCode(t *testing.T, n int) (*core.Levels, [][]byte, []*core.CodedBlock) {
	t.Helper()
	levels, err := core.NewLevels(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 32)
		rng.Read(sources[i])
	}
	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, core.PriorityDistribution{0.4, 0.6}, n)
	if err != nil {
		t.Fatal(err)
	}
	return levels, sources, blocks
}

// TestMultiPutOneFsync pins the group commit a multi-block put reaches:
// one 32-block put frame on an FsyncBatch engine costs one fsync, where
// 32 single puts cost one each.
func TestMultiPutOneFsync(t *testing.T) {
	_, _, blocks := serverTestCode(t, 33)
	reg := metrics.NewRegistry()
	eng, err := Open(t.TempDir(), Options{Fsync: FsyncBatch, Logf: quiet, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := store.NewServer(store.ServerConfig{Blocks: eng})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer srv.Shutdown(ctx)
	cli, err := store.NewClient(store.ClientConfig{Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// The first put opens the segment; count from after it.
	if err := cli.Put(ctx, blocks[0]); err != nil {
		t.Fatal(err)
	}
	before := countVal(t, reg.Snapshot(), "diskstore_fsyncs_total")
	if n, err := cli.PutAll(ctx, blocks[1:]); err != nil || n != 32 {
		t.Fatalf("PutAll stored %d/32: %v", n, err)
	}
	if got := countVal(t, reg.Snapshot(), "diskstore_fsyncs_total") - before; got != 1 {
		t.Fatalf("one 32-block put frame cost %d fsyncs, want 1", got)
	}
	if eng.Len() != 33 {
		t.Fatalf("engine holds %d blocks, want 33", eng.Len())
	}
}
