package core

import (
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// Metrics-overhead benchmarks. Each Metered benchmark runs the hot path
// with a live registry attached; its Ref twin runs the identical workload
// with metrics detached. The ratio ref_ns / metered_ns is therefore the
// inverse of the instrumentation overhead: a value of 0.95 means metrics
// cost 5%. The budget is ≤5% on every pair:
//
//	go test -run='^$' -bench 'BenchmarkMetered(Encode|Decode)' ./internal/core

func benchmarkMeteredEncode(b *testing.B, instrumented bool) {
	levels := decodeBenchLevels(b, 64, 8)
	enc, err := NewEncoder(PLC, levels, benchSources(levels.Total(), 4<<10))
	if err != nil {
		b.Fatal(err)
	}
	if instrumented {
		enc.SetMetrics(metrics.NewRegistry())
	}
	rng := rand.New(rand.NewSource(9))
	top := levels.Count() - 1
	b.SetBytes(4 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(rng, top); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeteredEncode(b *testing.B)    { benchmarkMeteredEncode(b, true) }
func BenchmarkMeteredEncodeRef(b *testing.B) { benchmarkMeteredEncode(b, false) }

func benchmarkMeteredDecode(b *testing.B, instrumented bool) {
	const payloadLen = 64
	levels := decodeBenchLevels(b, 64, 8)
	blocks := decodeBenchBlocks(b, PLC, levels, payloadLen, 2)
	b.SetBytes(int64(len(blocks)) * payloadLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := NewDecoder(PLC, levels, payloadLen)
		if err != nil {
			b.Fatal(err)
		}
		if instrumented {
			b.StopTimer()
			dec.SetMetrics(metrics.NewRegistry()) // registry setup off the clock
			b.StartTimer()
		}
		for _, blk := range blocks {
			if _, err := dec.Add(blk); err != nil {
				b.Fatal(err)
			}
			if dec.Complete() {
				break
			}
		}
		if !dec.Complete() {
			b.Fatal("decode incomplete")
		}
	}
}

func BenchmarkMeteredDecode(b *testing.B)    { benchmarkMeteredDecode(b, true) }
func BenchmarkMeteredDecodeRef(b *testing.B) { benchmarkMeteredDecode(b, false) }
