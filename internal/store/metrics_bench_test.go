package store

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Metrics-overhead benchmark for the wire path. MeteredRoundtrip drives a
// put/get round trip over loopback with server AND client sharing one
// live registry (every frame crosses two meterConns and touches a dozen
// counters plus two latency histograms); its Ref twin runs the identical
// round trip fully uninstrumented. ref_ns / metered_ns ≥ 0.95 means the
// whole observability seam costs ≤5% of a network round trip:
//
//	go test -run='^$' -bench 'BenchmarkMeteredRoundtrip' ./internal/store

func benchmarkMeteredRoundtrip(b *testing.B, reg *metrics.Registry) {
	srv, err := NewServer(ServerConfig{Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	cl, err := NewClient(ClientConfig{
		Addr:      srv.Addr(),
		OpTimeout: 5 * time.Second,
		Metrics:   reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	levels, err := core.NewLevels(4, 12)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 4<<10)
		rng.Read(sources[i])
	}
	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, core.PriorityDistribution{0.4, 0.6}, 8)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, blk := range blocks {
		if err := cl.Put(ctx, blk); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(8 * (4 << 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := cl.GetObject(ctx, core.ZeroObject, -1)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(blocks) {
			b.Fatalf("got %d blocks, want %d", len(got), len(blocks))
		}
	}
}

func BenchmarkMeteredRoundtrip(b *testing.B) {
	benchmarkMeteredRoundtrip(b, metrics.NewRegistry())
}

func BenchmarkMeteredRoundtripRef(b *testing.B) {
	benchmarkMeteredRoundtrip(b, nil)
}
