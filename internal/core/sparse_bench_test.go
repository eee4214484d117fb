package core

import (
	"math/rand"
	"testing"

	"repro/internal/gfmat"
)

// Sparse/chunked decode benchmarks. Each benchmark decodes a deterministic
// full-rank block stream through the sparse-aware path (core.Decoder's
// AddSparse / ChunkedDecoder's global sparse elimination); its Ref twin
// feeds the identical stream, densified, through the structure-blind
// dense elimination (gfmat.RefDecoder) — decode cost as it was
// before the sparse representation. Payloads are 64 B so elimination
// dominates, the regime the O(ln N) dissemination vectors live in. The
// Wire benchmarks report coefficient wire bytes per block via
// ReportMetric, pairing the v3 sparse frames (WireSparseN1024) against
// the dense v1 encoding of the same vectors (WireSparseN1024Ref):
//
//	go test -run='^$' -bench 'BenchmarkDecode(Sparse|Chunked)N|BenchmarkWire(Sparse|Chunked)N' -benchtime=5x ./internal/core

const sparseBenchPayload = 64

// sparseBenchStream draws blocks from a single-level RLC encoder with the
// given option until a trial decoder completes, so every benchmark replay
// is guaranteed full rank. The stream is deterministic per (n, opts).
func sparseBenchStream(b *testing.B, n int, opts ...EncoderOption) (*Levels, []*CodedBlock) {
	b.Helper()
	levels, err := NewLevels(n)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := NewEncoder(RLC, levels, benchSources(n, sparseBenchPayload), opts...)
	if err != nil {
		b.Fatal(err)
	}
	trial, err := NewDecoder(RLC, levels, sparseBenchPayload)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var blocks []*CodedBlock
	for !trial.Complete() {
		if len(blocks) > 8*n {
			b.Fatalf("stream did not reach full rank in %d blocks", len(blocks))
		}
		blk, err := enc.Encode(rng, 0)
		if err != nil {
			b.Fatal(err)
		}
		blocks = append(blocks, blk)
		if _, err := trial.Add(blk); err != nil {
			b.Fatal(err)
		}
	}
	return levels, blocks
}

// chunkedBenchStream is the expander-chunked equivalent: round-robin
// chunk blocks until a trial decoder completes.
func chunkedBenchStream(b *testing.B, n, size, overlap int) (*ChunkLayout, []*CodedBlock) {
	b.Helper()
	layout, err := NewChunkLayout(n, size, overlap)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := NewChunkedEncoder(layout, benchSources(n, sparseBenchPayload))
	if err != nil {
		b.Fatal(err)
	}
	trial, err := NewChunkedDecoder(layout, sparseBenchPayload)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var blocks []*CodedBlock
	for i := 0; !trial.Complete(); i++ {
		if i > 8*n {
			b.Fatalf("chunk stream did not reach full rank in %d blocks", i)
		}
		blk, err := enc.EncodeChunk(rng, i%layout.Count)
		if err != nil {
			b.Fatal(err)
		}
		blocks = append(blocks, blk)
		if _, err := trial.Add(blk); err != nil {
			b.Fatal(err)
		}
	}
	return layout, blocks
}

// densify returns the stream with every coefficient vector expanded, so
// the Ref baselines pay no densification cost inside the timed loop.
func densify(blocks []*CodedBlock) [][]byte {
	out := make([][]byte, len(blocks))
	for i, blk := range blocks {
		out[i] = blk.DenseCoeff()
	}
	return out
}

func benchmarkSparseDecode(b *testing.B, n int, opts ...EncoderOption) {
	levels, blocks := sparseBenchStream(b, n, opts...)
	b.SetBytes(int64(len(blocks)) * sparseBenchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := NewDecoder(RLC, levels, sparseBenchPayload)
		if err != nil {
			b.Fatal(err)
		}
		for _, blk := range blocks {
			if _, err := dec.Add(blk); err != nil {
				b.Fatal(err)
			}
		}
		if !dec.Complete() {
			b.Fatalf("decode incomplete: rank %d/%d", dec.Rank(), n)
		}
	}
}

func benchmarkSparseDecodeRef(b *testing.B, n int, opts ...EncoderOption) {
	_, blocks := sparseBenchStream(b, n, opts...)
	dense := densify(blocks)
	b.SetBytes(int64(len(blocks)) * sparseBenchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := gfmat.NewRefDecoder(n, sparseBenchPayload)
		if err != nil {
			b.Fatal(err)
		}
		for j := range blocks {
			if _, err := dec.Add(dense[j], blocks[j].Payload); err != nil {
				b.Fatal(err)
			}
		}
		if !dec.Complete() {
			b.Fatalf("decode incomplete: rank %d/%d", dec.Rank(), n)
		}
	}
}

func benchmarkChunkedDecode(b *testing.B, n, size, overlap int) {
	layout, blocks := chunkedBenchStream(b, n, size, overlap)
	b.SetBytes(int64(len(blocks)) * sparseBenchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := NewChunkedDecoder(layout, sparseBenchPayload)
		if err != nil {
			b.Fatal(err)
		}
		for _, blk := range blocks {
			if _, err := dec.Add(blk); err != nil {
				b.Fatal(err)
			}
		}
		if !dec.Complete() {
			b.Fatalf("decode incomplete: rank %d/%d", dec.Rank(), n)
		}
	}
}

func benchmarkChunkedDecodeRef(b *testing.B, n, size, overlap int) {
	_, blocks := chunkedBenchStream(b, n, size, overlap)
	dense := densify(blocks)
	b.SetBytes(int64(len(blocks)) * sparseBenchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := gfmat.NewRefDecoder(n, sparseBenchPayload)
		if err != nil {
			b.Fatal(err)
		}
		for j := range blocks {
			if _, err := dec.Add(dense[j], blocks[j].Payload); err != nil {
				b.Fatal(err)
			}
		}
		if !dec.Complete() {
			b.Fatalf("decode incomplete: rank %d/%d", dec.Rank(), n)
		}
	}
}

func sparseOpts(n int) []EncoderOption { return []EncoderOption{WithSparsity(LogSparsity(n))} }

func BenchmarkDecodeSparseN512(b *testing.B)    { benchmarkSparseDecode(b, 512, sparseOpts(512)...) }
func BenchmarkDecodeSparseN512Ref(b *testing.B) { benchmarkSparseDecodeRef(b, 512, sparseOpts(512)...) }
func BenchmarkDecodeSparseN1024(b *testing.B)   { benchmarkSparseDecode(b, 1024, sparseOpts(1024)...) }
func BenchmarkDecodeSparseN1024Ref(b *testing.B) {
	benchmarkSparseDecodeRef(b, 1024, sparseOpts(1024)...)
}
func BenchmarkDecodeSparseN2048(b *testing.B) { benchmarkSparseDecode(b, 2048, sparseOpts(2048)...) }
func BenchmarkDecodeSparseN2048Ref(b *testing.B) {
	benchmarkSparseDecodeRef(b, 2048, sparseOpts(2048)...)
}

func BenchmarkDecodeChunkedN512(b *testing.B) { benchmarkChunkedDecode(b, 512, 128, 16) }
func BenchmarkDecodeChunkedN512Ref(b *testing.B) {
	benchmarkChunkedDecodeRef(b, 512, 128, 16)
}
func BenchmarkDecodeChunkedN1024(b *testing.B) { benchmarkChunkedDecode(b, 1024, 128, 16) }
func BenchmarkDecodeChunkedN1024Ref(b *testing.B) {
	benchmarkChunkedDecodeRef(b, 1024, 128, 16)
}
func BenchmarkDecodeChunkedN2048(b *testing.B) { benchmarkChunkedDecode(b, 2048, 128, 16) }
func BenchmarkDecodeChunkedN2048Ref(b *testing.B) {
	benchmarkChunkedDecodeRef(b, 2048, 128, 16)
}

// N=4096 has no Ref twin: the dense baseline's cubic elimination makes it
// impractically slow, which is itself the point of the sparse paths.
func BenchmarkDecodeChunkedN4096(b *testing.B) { benchmarkChunkedDecode(b, 4096, 256, 32) }

// benchmarkWire marshals the stream and reports the mean coefficient wire
// bytes per block — payloads are excluded so the metric isolates what the
// v3 encoding saves.
func benchmarkWire(b *testing.B, blocks []*CodedBlock) {
	var coeffBytes int
	for _, blk := range blocks {
		coeffBytes += blk.WireSize() - len(blk.Payload)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			if _, err := blk.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(coeffBytes)/float64(len(blocks)), "wire-B/block")
}

func BenchmarkWireSparseN1024(b *testing.B) {
	_, blocks := sparseBenchStream(b, 1024, sparseOpts(1024)...)
	benchmarkWire(b, blocks)
}

// The Ref twin marshals the same vectors densified: the v1 dense frames a
// pre-sparse writer would ship.
func BenchmarkWireSparseN1024Ref(b *testing.B) {
	_, blocks := sparseBenchStream(b, 1024, sparseOpts(1024)...)
	dense := make([]*CodedBlock, len(blocks))
	for i, blk := range blocks {
		dense[i] = &CodedBlock{Level: blk.Level, Coeff: blk.DenseCoeff(), Payload: blk.Payload}
	}
	benchmarkWire(b, dense)
}

func BenchmarkWireChunkedN1024(b *testing.B) {
	_, blocks := chunkedBenchStream(b, 1024, 128, 16)
	benchmarkWire(b, blocks)
}
