package core

import (
	"math/rand"
	"testing"

	"repro/internal/gfmat"
)

// Dense-vs-truncated decode benchmarks. Each structured benchmark
// (DecodePLCNk, DecodeSLCNk: core.Decoder with level boundary hints for
// PLC, per-level sub-decoders for SLC) pairs with a Ref twin
// (DecodePLCNkRef, DecodeSLCNkRef) that feeds the identical block stream
// through the dense structure-blind elimination (gfmat.RefDecoder) over
// the full N-wide system — the decode path as it was before level
// truncation. Payloads are 64 B so the coefficient-side elimination
// dominates, which is the regime of the paper's Monte-Carlo loops
// (N = 1000 × 100 trials per curve point); DecodeStriped covers the
// opposite, payload-dominated regime. The benchmark's publish-recover
// decode, DecodePLCN512x4KiB, is in internal/gfmat, where it can report
// the decoder's payload folds.
//
//	go test -run='^$' -bench 'BenchmarkDecode(PLC|SLC|Striped)N' -benchtime=10x ./internal/core

// decodeBenchLevels splits n blocks into nLevels levels as evenly as
// possible (the first n%nLevels levels get one extra block).
func decodeBenchLevels(b *testing.B, n, nLevels int) *Levels {
	b.Helper()
	base, rem := n/nLevels, n%nLevels
	sizes := make([]int, nLevels)
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	levels, err := NewLevels(sizes...)
	if err != nil {
		b.Fatal(err)
	}
	return levels
}

// decodeBenchBlocks encodes a deterministic block stream with guaranteed
// full-rank coverage: size_k + extra blocks per level, shuffled.
func decodeBenchBlocks(b *testing.B, scheme Scheme, levels *Levels, payloadLen, extra int) []*CodedBlock {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	enc, err := NewEncoder(scheme, levels, benchSources(levels.Total(), payloadLen))
	if err != nil {
		b.Fatal(err)
	}
	var blocks []*CodedBlock
	for level := 0; level < levels.Count(); level++ {
		for i := 0; i < levels.Size(level)+extra; i++ {
			blk, err := enc.Encode(rng, level)
			if err != nil {
				b.Fatal(err)
			}
			blocks = append(blocks, blk)
		}
	}
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	return blocks
}

func benchmarkStructuredDecode(b *testing.B, scheme Scheme, n, nLevels, payloadLen int) {
	levels := decodeBenchLevels(b, n, nLevels)
	blocks := decodeBenchBlocks(b, scheme, levels, payloadLen, 2)
	b.SetBytes(int64(len(blocks)) * int64(payloadLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := NewDecoder(scheme, levels, payloadLen)
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

// benchmarkDenseDecodeRef is the ablation baseline: the same blocks, one
// flat N-unknown elimination, full-width row operations.
func benchmarkDenseDecodeRef(b *testing.B, scheme Scheme, n, nLevels, payloadLen int) {
	levels := decodeBenchLevels(b, n, nLevels)
	blocks := decodeBenchBlocks(b, scheme, levels, payloadLen, 2)
	b.SetBytes(int64(len(blocks)) * int64(payloadLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := gfmat.NewRefDecoder(n, payloadLen)
		if err != nil {
			b.Fatal(err)
		}
		for _, blk := range blocks {
			if _, err := dec.Add(blk.Coeff, blk.Payload); err != nil {
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

const decodeBenchPayload = 64

func BenchmarkDecodePLCN64(b *testing.B) {
	benchmarkStructuredDecode(b, PLC, 64, 8, decodeBenchPayload)
}
func BenchmarkDecodePLCN64Ref(b *testing.B) {
	benchmarkDenseDecodeRef(b, PLC, 64, 8, decodeBenchPayload)
}
func BenchmarkDecodePLCN256(b *testing.B) {
	benchmarkStructuredDecode(b, PLC, 256, 16, decodeBenchPayload)
}
func BenchmarkDecodePLCN256Ref(b *testing.B) {
	benchmarkDenseDecodeRef(b, PLC, 256, 16, decodeBenchPayload)
}
func BenchmarkDecodePLCN1024(b *testing.B) {
	benchmarkStructuredDecode(b, PLC, 1024, 50, decodeBenchPayload)
}
func BenchmarkDecodePLCN1024Ref(b *testing.B) {
	benchmarkDenseDecodeRef(b, PLC, 1024, 50, decodeBenchPayload)
}

func BenchmarkDecodeSLCN64(b *testing.B) {
	benchmarkStructuredDecode(b, SLC, 64, 8, decodeBenchPayload)
}
func BenchmarkDecodeSLCN64Ref(b *testing.B) {
	benchmarkDenseDecodeRef(b, SLC, 64, 8, decodeBenchPayload)
}
func BenchmarkDecodeSLCN256(b *testing.B) {
	benchmarkStructuredDecode(b, SLC, 256, 16, decodeBenchPayload)
}
func BenchmarkDecodeSLCN256Ref(b *testing.B) {
	benchmarkDenseDecodeRef(b, SLC, 256, 16, decodeBenchPayload)
}
func BenchmarkDecodeSLCN1024(b *testing.B) {
	benchmarkStructuredDecode(b, SLC, 1024, 50, decodeBenchPayload)
}
func BenchmarkDecodeSLCN1024Ref(b *testing.B) {
	benchmarkDenseDecodeRef(b, SLC, 1024, 50, decodeBenchPayload)
}

// DecodeStriped exercises the payload-parallel pipeline: 128 KiB payloads,
// where the payload-side AddMulSlice work dominates and the decoder stripes
// it across GOMAXPROCS goroutines. DecodeStripedN64WorkersK runs at
// GOMAXPROCS K and pairs against DecodeStripedN64, the GOMAXPROCS-1 run
// (bounded by the CPU count, like the encode pipeline).
func benchmarkStripedDecode(b *testing.B, procs int) {
	const n, nLevels, payloadLen = 64, 8, 128 << 10
	setProcs(b, procs)
	levels := decodeBenchLevels(b, n, nLevels)
	blocks := decodeBenchBlocks(b, PLC, levels, payloadLen, 2)
	b.SetBytes(int64(len(blocks)) * int64(payloadLen))
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

func BenchmarkDecodeStripedN64(b *testing.B)         { benchmarkStripedDecode(b, 1) }
func BenchmarkDecodeStripedN64Workers2(b *testing.B) { benchmarkStripedDecode(b, 2) }
func BenchmarkDecodeStripedN64Workers4(b *testing.B) { benchmarkStripedDecode(b, 4) }
