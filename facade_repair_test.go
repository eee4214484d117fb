package prlc

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestRecombineFacade pins the repair primitive on the facade: a
// recombined block decodes like a fresh one, and the degenerate-sample
// sentinel is branchable with errors.Is.
func TestRecombineFacade(t *testing.T) {
	levels, err := NewLevels(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 8)
		rng.Read(sources[i])
	}
	enc, err := NewEncoder(PLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, UniformDistribution(2), 12)
	if err != nil {
		t.Fatal(err)
	}
	fresh, rank, err := RecombineRanked(rng, PLC, levels, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if rank < levels.Total() {
		t.Fatalf("12-block sample has rank %d, want %d", rank, levels.Total())
	}
	dec, err := NewDecoder(PLC, levels, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Add(fresh); err != nil {
		t.Fatalf("decoder rejected recombined block: %v", err)
	}
	for _, b := range blocks {
		if _, err := dec.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	if !dec.Complete() {
		t.Fatalf("recombined + original blocks decode %d levels", dec.DecodedLevels())
	}

	zero := &CodedBlock{Level: 0, Coeff: make([]byte, levels.Total()), Payload: make([]byte, 8)}
	if _, _, err := RecombineRanked(rng, PLC, levels, []*CodedBlock{zero}); !errors.Is(err, ErrDegenerateInputs) {
		t.Fatalf("all-zero sample = %v, want errors.Is ErrDegenerateInputs", err)
	}
	if _, err := Recombine(rng, PLC, levels, blocks); err != nil {
		t.Fatalf("unranked recombine: %v", err)
	}
}

// TestFacadeRepairRoundTrip exercises the repair surface through the
// facade: wipe a replica, audit the deficit, let the daemon regenerate
// it by recombination, and audit back to health.
func TestFacadeRepairRoundTrip(t *testing.T) {
	ctx := context.Background()
	levels, err := NewLevels(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 16)
		rng.Read(sources[i])
	}
	enc, err := NewEncoder(PLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, UniformDistribution(2), 24)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]int, levels.Count())
	for _, b := range blocks {
		targets[b.Level]++
	}

	var servers []*StoreServer
	var clients []*StoreClient
	for i := 0; i < 3; i++ {
		srv, err := NewStoreServer(StoreServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
		}()
		cl, err := NewStoreClient(StoreClientConfig{Addr: srv.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		servers = append(servers, srv)
		clients = append(clients, cl)
	}
	placed, err := NewPlacedStore(clients, levels.Count(), PlacedStoreConfig{Replication: len(clients), Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placed.PutAll(ctx, blocks); err != nil {
		t.Fatal(err)
	}
	// The flat fleet's one replica set: every node, for the key-less object.
	repl, err := placed.Shard(ZeroObject)
	if err != nil {
		t.Fatal(err)
	}

	audit, err := AuditStore(ctx, repl, StoreAuditConfig{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Healthy() {
		t.Fatalf("freshly provisioned fleet not healthy: %+v", audit)
	}

	// Wipe replica 1: drain it and bring an empty server back on the
	// same address — churn with a blank-disk replacement.
	addr := servers[1].Addr()
	sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	if err := servers[1].Shutdown(sctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	cancel()
	for attempt := 0; ; attempt++ {
		srv, err := NewStoreServer(StoreServerConfig{Addr: addr})
		if err == nil {
			servers[1] = srv
			break
		}
		if attempt > 50 {
			t.Fatalf("resurrect replica on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	audit, err = AuditStore(ctx, repl, StoreAuditConfig{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if audit.Healthy() || audit.TotalDeficit() == 0 {
		t.Fatalf("wiped replica left no deficit: %+v", audit)
	}
	if def := audit.Deficient(); len(def) == 0 || def[0].Level != 0 {
		t.Fatalf("deficient levels %+v, want most-critical first", def)
	}

	d, err := NewObjectRepairDaemon(placed, ZeroObject, RepairConfig{
		Scheme:  PLC,
		Levels:  levels,
		Targets: targets,
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; ; round++ {
		if round > 8 {
			t.Fatalf("repair did not converge in %d rounds", round)
		}
		rep, err := d.RunOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.SkippedLevels) > 0 {
			t.Fatalf("daemon skipped levels %v", rep.SkippedLevels)
		}
		audit, err = AuditStore(ctx, repl, StoreAuditConfig{Targets: targets})
		if err != nil {
			t.Fatal(err)
		}
		if audit.TotalDeficit() == 0 {
			break
		}
	}
	if rep := d.LastReport(); rep.Audit == nil {
		t.Fatal("LastReport lost the audit")
	}

	// The repaired fleet decodes fully from a plain collect.
	survived, err := placed.Collect(ctx, ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(PLC, levels, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range survived {
		if _, err := dec.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	if !dec.Complete() {
		t.Fatalf("repaired fleet decodes %d/%d levels", dec.DecodedLevels(), levels.Count())
	}
	for i := range sources {
		got, err := dec.Source(i)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(sources[i]) {
			t.Fatalf("source %d corrupted through repair", i)
		}
	}
}
