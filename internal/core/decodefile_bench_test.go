package core

import (
	"math/rand"
	"testing"
	"time"
)

// DecodeFile benchmarks compare the codings AutoCoding picks between on
// one file, end to end: PLC levels 0.1/0.2/0.7 of N × 1 KiB sources, 3N
// coded blocks (levels drawn uniformly, prlcfile's default; the chunked
// encoder round-robins over its chunks), decoded in order until complete.
// Each iteration encodes and decodes the file once. enc-ms and dec-ms
// split the time; blocks is how many coded blocks the decode consumed,
// the paper's M, which a coding's faster elimination must not buy with
// more blocks.

const fileBenchPayload = 1024

// fileDecoder is what the level-structured and the chunked decoders share.
type fileDecoder interface {
	Add(*CodedBlock) (bool, error)
	Complete() bool
}

func benchmarkDecodeFile(b *testing.B, coding Coding, n int) {
	sources := benchSources(n, fileBenchPayload)
	levels, err := NewLevels(n/10, n/5, n-n/10-n/5)
	if err != nil {
		b.Fatal(err)
	}
	var opts []EncoderOption
	if coding == CodingSparse {
		opts = append(opts, WithSparsity(LogSparsity(n)))
	}
	encode := func() ([]*CodedBlock, error) {
		enc, err := NewEncoder(PLC, levels, sources, opts...)
		if err != nil {
			return nil, err
		}
		return enc.EncodeSeeded(1, NewUniformDistribution(3), 3*n)
	}
	newDecoder := func() (fileDecoder, error) { return NewDecoder(PLC, levels, fileBenchPayload) }
	if coding == CodingChunked {
		layout, err := DefaultChunkLayout(n)
		if err != nil {
			b.Fatal(err)
		}
		encode = func() ([]*CodedBlock, error) {
			enc, err := NewChunkedEncoder(layout, sources)
			if err != nil {
				return nil, err
			}
			return enc.EncodeBatch(rand.New(rand.NewSource(1)), 3*n)
		}
		newDecoder = func() (fileDecoder, error) { return NewChunkedDecoder(layout, fileBenchPayload) }
	}

	var encTime, decTime time.Duration
	used := 0
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		blocks, err := encode()
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		dec, err := newDecoder()
		if err != nil {
			b.Fatal(err)
		}
		used = 0
		for _, blk := range blocks {
			if dec.Complete() {
				break
			}
			if _, err := dec.Add(blk); err != nil {
				b.Fatal(err)
			}
			used++
		}
		if !dec.Complete() {
			b.Fatalf("%v N=%d: incomplete after %d coded blocks", coding, n, len(blocks))
		}
		encTime += t1.Sub(t0)
		decTime += time.Since(t1)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
	b.ReportMetric(ms(encTime), "enc-ms")
	b.ReportMetric(ms(decTime), "dec-ms")
	b.ReportMetric(float64(used), "blocks")
}

func BenchmarkDecodeFileDenseN300(b *testing.B)    { benchmarkDecodeFile(b, CodingDense, 300) }
func BenchmarkDecodeFileSparseN300(b *testing.B)   { benchmarkDecodeFile(b, CodingSparse, 300) }
func BenchmarkDecodeFileChunkedN300(b *testing.B)  { benchmarkDecodeFile(b, CodingChunked, 300) }
func BenchmarkDecodeFileDenseN512(b *testing.B)    { benchmarkDecodeFile(b, CodingDense, 512) }
func BenchmarkDecodeFileSparseN512(b *testing.B)   { benchmarkDecodeFile(b, CodingSparse, 512) }
func BenchmarkDecodeFileChunkedN512(b *testing.B)  { benchmarkDecodeFile(b, CodingChunked, 512) }
func BenchmarkDecodeFileDenseN1024(b *testing.B)   { benchmarkDecodeFile(b, CodingDense, 1024) }
func BenchmarkDecodeFileSparseN1024(b *testing.B)  { benchmarkDecodeFile(b, CodingSparse, 1024) }
func BenchmarkDecodeFileChunkedN1024(b *testing.B) { benchmarkDecodeFile(b, CodingChunked, 1024) }
