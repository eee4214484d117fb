package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
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
			if answers[r], err = splitBlockList(body); err != nil {
				b.Fatal(err)
			}
		}
		if out := repl.mergeCopies(answers, errs); len(out) != len(distinct) {
			b.Fatalf("merged %d blocks, want %d", len(out), len(distinct))
		}
	}
}
