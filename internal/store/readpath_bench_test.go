package store

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// benchWire marshals one keyed dense block with a random payload.
func benchWire(b *testing.B, rng *rand.Rand, obj core.ObjectID, level, payload int) []byte {
	b.Helper()
	blk := core.CodedBlock{Object: obj, Level: level, Coeff: make([]byte, 16), Payload: make([]byte, payload)}
	rng.Read(blk.Coeff)
	rng.Read(blk.Payload)
	wire, err := blk.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	return wire
}

// BenchmarkGetOneObjectAmongMany pins what the per-object index buys: a
// read of one 16-block object costs the same with 10, 100 or 1,000 other
// objects resident (ns/op and B/op flat across the sub-benchmarks; the
// scan it replaced grew linearly).
func BenchmarkGetOneObjectAmongMany(b *testing.B) {
	for _, others := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("others=%d", others), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			eng := NewMemStore(0)
			for obj := core.ObjectID(1); obj <= core.ObjectID(others+1); obj++ {
				for i := 0; i < 16; i++ {
					if _, err := eng.Put(obj, i%4, benchWire(b, rng, obj, i%4, 256)); err != nil {
						b.Fatal(err)
					}
				}
			}
			target := core.ObjectID(others/2 + 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := eng.Get(target, -1)
				if err != nil || len(got) != 16 {
					b.Fatalf("get: %d blocks, %v", len(got), err)
				}
			}
		})
	}
}

// BenchmarkCollectDedup is the client side of one mixed-steady collect
// with the sockets taken out: three replicas answer 23 blocks of 1 KiB
// each, 26 distinct blocks among the 69 (62 % duplicate copies); each
// iteration splits the three responses and merges them, parsing the
// first copy of each block only. allocs/op is the number to watch — the
// response bodies themselves are not part of it.
func BenchmarkCollectDedup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	distinct := make([][]byte, 26)
	for i := range distinct {
		distinct[i] = benchWire(b, rng, 7, i%4, 1024)
	}
	// 17 blocks sit on all three replicas, 9 on two: 23 per replica.
	bodies := make([][]byte, 3)
	for r := range bodies {
		var held [][]byte
		for i, w := range distinct {
			if i < 17 || i%3 != r {
				held = append(held, w)
			}
		}
		if len(held) != 23 {
			b.Fatalf("replica %d holds %d blocks, want 23", r, len(held))
		}
		bodies[r] = wrapBlockList(held...)
	}
	repl, err := NewReplicated([]*Client{{}, {}, {}}, 4, ReplicatedConfig{})
	if err != nil {
		b.Fatal(err)
	}
	answers := make([][][]byte, len(bodies))
	errs := make([]error, len(bodies))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r, body := range bodies {
			if answers[r], err = splitBlockList(nil, body); err != nil {
				b.Fatal(err)
			}
		}
		if out := mergeAnswers(repl, answers, errs); len(out) != len(distinct) {
			b.Fatalf("merged %d blocks, want %d", len(out), len(distinct))
		}
	}
}

// BenchmarkCollectPrefix is a level-bounded collect on a healthy 3-owner
// MemStore fleet holding one PLC object of N = 64 in four levels (seed
// frames): owners/op is how many owners each read asked — 1 for level 0,
// which every owner holds, 2 for all levels — and fetched-blocks/op how
// many blocks the answers it consumed carried, copies included.
func BenchmarkCollectPrefix(b *testing.B) {
	ctx := context.Background()
	levels, err := core.NewLevels(16, 16, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 1024)
		rng.Read(sources[i])
	}
	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, core.PriorityDistribution{0.25, 0.25, 0.25, 0.25}, 96)
	if err != nil {
		b.Fatal(err)
	}
	reg := metrics.NewRegistry()
	clients := make([]*Client, 3)
	for i := range clients {
		srv, err := NewServer(ServerConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Shutdown(ctx)
		if clients[i], err = NewClient(ClientConfig{Addr: srv.Addr()}); err != nil {
			b.Fatal(err)
		}
		defer clients[i].Close()
	}
	repl, err := NewReplicated(clients, levels.Count(), ReplicatedConfig{Tolerance: 1, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := repl.PutAll(ctx, blocks); err != nil {
		b.Fatal(err)
	}
	owners := reg.Counter("store_replicated_collect_owners_asked_total")
	fetched := func() uint64 {
		return reg.Counter("store_replicated_collect_blocks_total").Value() +
			reg.Counter("store_replicated_collect_dup_blocks_total").Value()
	}
	for _, maxLevel := range []int{0, levels.Count() - 1} {
		name := "level=0"
		if maxLevel > 0 {
			name = "level=all"
		}
		b.Run(name, func(b *testing.B) {
			owners0, fetched0 := owners.Value(), fetched()
			for i := 0; i < b.N; i++ {
				if _, err := repl.CollectObject(ctx, core.ZeroObject, maxLevel); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(owners.Value()-owners0)/float64(b.N), "owners/op")
			b.ReportMetric(float64(fetched()-fetched0)/float64(b.N), "fetched-blocks/op")
		})
	}
}
