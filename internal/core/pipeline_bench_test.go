package core

import (
	"math/rand"
	"testing"
)

// End-to-end pipeline benchmarks: encode a full batch of coded blocks and
// decode a full-rank accumulation, at the three N the kernel work targets.
// Payloads are 1 KiB — the regime where the word-parallel kernels carry the
// run — and the coded-block count is 1.25·N so decode always completes.
// EncodeN* run EncodeSeeded at GOMAXPROCS 1; EncodeN256WorkersK at K
// pairs against EncodeN256 (bounded by the CPU count):
//
//	go test -run='^$' -bench 'Benchmark(Encode|Decode)N' -benchtime=5x ./internal/core

func benchLevels(b *testing.B, n int) *Levels {
	b.Helper()
	levels, err := UniformLevels(4, n/4)
	if err != nil {
		b.Fatal(err)
	}
	return levels
}

func benchSources(n, payloadLen int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, payloadLen)
		rng.Read(out[i])
	}
	return out
}

func benchmarkEncode(b *testing.B, n, procs int) {
	const payloadLen = 1024
	setProcs(b, procs)
	levels := benchLevels(b, n)
	enc, err := NewEncoder(PLC, levels, benchSources(n, payloadLen))
	if err != nil {
		b.Fatal(err)
	}
	count := n + n/4
	p := NewUniformDistribution(levels.Count())
	b.SetBytes(int64(count) * payloadLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.EncodeSeeded(int64(i), p, count); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeN64(b *testing.B)   { benchmarkEncode(b, 64, 1) }
func BenchmarkEncodeN256(b *testing.B)  { benchmarkEncode(b, 256, 1) }
func BenchmarkEncodeN1024(b *testing.B) { benchmarkEncode(b, 1024, 1) }

func BenchmarkEncodeN256Workers2(b *testing.B) { benchmarkEncode(b, 256, 2) }
func BenchmarkEncodeN256Workers4(b *testing.B) { benchmarkEncode(b, 256, 4) }

func benchmarkDecode(b *testing.B, n int) {
	const payloadLen = 1024
	levels := benchLevels(b, n)
	enc, err := NewEncoder(PLC, levels, benchSources(n, payloadLen))
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := enc.EncodeSeeded(42, NewUniformDistribution(levels.Count()), n+n/4)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blocks)) * payloadLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := NewDecoder(PLC, levels, payloadLen)
		if err != nil {
			b.Fatal(err)
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
			b.Fatalf("decode incomplete: rank %d/%d", dec.Rank(), n)
		}
	}
}

func BenchmarkDecodeN64(b *testing.B)   { benchmarkDecode(b, 64) }
func BenchmarkDecodeN256(b *testing.B)  { benchmarkDecode(b, 256) }
func BenchmarkDecodeN1024(b *testing.B) { benchmarkDecode(b, 1024) }
