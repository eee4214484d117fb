package prlc

import (
	"context"
	"encoding"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestErrDisconnectedIs pins the typed-error contract: an impossible
// deployment fails with a sentinel callers can branch on.
func TestErrDisconnectedIs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, _, err := NewSensorNetwork(rng, 40, 0.01)
	if err == nil {
		t.Fatal("a 0.01-radius 40-node deployment should not connect")
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want errors.Is ErrDisconnected", err)
	}
}

// TestCodedBlockBinaryMarshaler pins the standard-serialization contract
// on the exported type.
func TestCodedBlockBinaryMarshaler(t *testing.T) {
	var b CodedBlock
	var _ encoding.BinaryMarshaler = &b
	var _ encoding.BinaryUnmarshaler = &b
	if err := b.UnmarshalBinary([]byte("garbage")); !errors.Is(err, ErrWireFormat) {
		t.Fatalf("err = %v, want errors.Is ErrWireFormat", err)
	}
	src := &CodedBlock{Level: 1, Coeff: []byte{0, 2, 3}, Payload: []byte{7}}
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back CodedBlock
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Level != 1 || string(back.Coeff) != string(src.Coeff) || string(back.Payload) != string(src.Payload) {
		t.Fatalf("round trip drifted: %+v", back)
	}
}

// TestFacadeStoreRoundTrip exercises the full store surface through the
// facade over a flat fleet (the ring with Replication = n, key-less data
// as ZeroObject): put with a partitioned replica, heal, collect, decode.
func TestFacadeStoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	levels, err := NewLevels(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
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

	fault := NewFaultDialer(nil, FaultConfig{Seed: 5})
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
		cl, err := NewStoreClient(StoreClientConfig{
			Addr:   srv.Addr(),
			Dialer: fault,
			Retry:  StoreRetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		})
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

	fault.Partition(servers[2].Addr())
	if _, err := placed.PutAll(ctx, blocks); err != nil {
		t.Fatalf("puts during a partition must be absorbed: %v", err)
	}
	fault.Heal(servers[2].Addr())

	survived, err := placed.Collect(ctx, ZeroObject, -1)
	if err != nil {
		t.Fatal(err)
	}
	res, dec, err := Collect(rng, PLC, levels, survived, CollectOptions{Context: ctx, PayloadLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodedLevels < 1 {
		t.Fatalf("critical level lost: %+v", res)
	}
	got, err := dec.Source(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(sources[0]) {
		t.Fatal("critical block corrupted")
	}

	// Context plumbing: a canceled collection run stops with ctx.Err().
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := Collect(rng, PLC, levels, survived, CollectOptions{Context: cctx, PayloadLen: 16}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Collect = %v, want context.Canceled", err)
	}

	// Unreachable fleet: typed unavailability.
	dead, err := NewStoreClient(StoreClientConfig{
		Addr:  "127.0.0.1:1",
		Retry: StoreRetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	deadFleet, err := NewPlacedStore([]*StoreClient{dead}, levels.Count(), PlacedStoreConfig{Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deadFleet.Collect(ctx, ZeroObject, -1); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("collect from dead fleet = %v, want ErrStoreUnavailable", err)
	}
}
