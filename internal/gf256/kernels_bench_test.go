package gf256

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the kernel layer. "Dense" rows are uniform random
// bytes (the common case for coded payloads); "sparse" rows are mostly zero
// (coefficient vectors of sparse codes), which the scalar kernel's zero
// branch loves and the branch-free word kernel must not regress badly on.

func benchPayload(n int, sparse bool) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	b := make([]byte, n)
	for i := range b {
		if sparse && rng.Intn(8) != 0 {
			continue // leave ~7/8 of the bytes zero
		}
		b[i] = byte(rng.Intn(256))
	}
	return b
}

func benchAddMul(b *testing.B, n int, sparse bool, f func(dst, src []byte, c byte)) {
	src := benchPayload(n, sparse)
	dst := benchPayload(n, false)
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(dst, src, byte(2+i%253))
	}
}

// 4 and 8 B straddle the length at which a SIMD call overtakes the scalar
// loop (gfniMin); 17 and 100 B end in a masked tail; 4 KiB is the payload
// of the publish-recover workload.
func BenchmarkAddMulSlice_4B(b *testing.B)         { benchAddMul(b, 4, false, AddMulSlice) }
func BenchmarkAddMulSlice_8B(b *testing.B)         { benchAddMul(b, 8, false, AddMulSlice) }
func BenchmarkAddMulSlice_17B(b *testing.B)        { benchAddMul(b, 17, false, AddMulSlice) }
func BenchmarkAddMulSlice_64B(b *testing.B)        { benchAddMul(b, 64, false, AddMulSlice) }
func BenchmarkAddMulSlice_100B(b *testing.B)       { benchAddMul(b, 100, false, AddMulSlice) }
func BenchmarkAddMulSlice_1KiB(b *testing.B)       { benchAddMul(b, 1024, false, AddMulSlice) }
func BenchmarkAddMulSlice_4KiB(b *testing.B)       { benchAddMul(b, 4096, false, AddMulSlice) }
func BenchmarkAddMulSlice_64KiB(b *testing.B)      { benchAddMul(b, 64*1024, false, AddMulSlice) }
func BenchmarkAddMulSliceSparse_1KiB(b *testing.B) { benchAddMul(b, 1024, true, AddMulSlice) }

// BenchmarkAddMulSliceFold_288x4KiB is the shape that dominates a
// publish-recover cycle: one 4 KiB destination accumulating 288 distinct
// 4 KiB sources — the mean support of a coded block at that workload's
// geometry on the encode side, and a mid-decode forward fold on the other.
// The sources (1.1 MiB) do not fit L1, unlike the single-pair benchmarks.
func BenchmarkAddMulSliceFold_288x4KiB(b *testing.B)    { benchFold(b, AddMulSlice) }
func BenchmarkAddMulSliceFoldRef_288x4KiB(b *testing.B) { benchFold(b, AddMulSliceRef) }

func benchFold(b *testing.B, f func(dst, src []byte, c byte)) {
	const sources, n = 288, 4096
	pool := benchPayload(sources*n, false)
	dst := make([]byte, n)
	b.SetBytes(sources * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < sources; s++ {
			f(dst, pool[s*n:(s+1)*n], byte(2+(i+s)%253))
		}
	}
}

// BenchmarkAddMulSlices_8x4KiB is the shape of the decoder's group solve:
// one 4 KiB source row folded into a group of eight 4 KiB rows, with one
// AddMulSlices call; the …Ref twin makes the eight AddMulSlice calls it
// replaces. Bytes are counted per destination.
func BenchmarkAddMulSlices_8x4KiB(b *testing.B) {
	benchGroup(b, AddMulSlices)
}

func BenchmarkAddMulSlicesRef_8x4KiB(b *testing.B) {
	benchGroup(b, func(dst [][]byte, src, c []byte) {
		for k, d := range dst {
			AddMulSlice(d, src, c[k])
		}
	})
}

func benchGroup(b *testing.B, f func(dst [][]byte, src, c []byte)) {
	const n = 4096
	src := benchPayload(n, false)
	dst := make([][]byte, maxSlices)
	for k := range dst {
		dst[k] = benchPayload(n+k, false)[:n]
	}
	c := make([]byte, maxSlices)
	b.SetBytes(maxSlices * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range c {
			c[k] = byte(2 + (i+k)%253)
		}
		f(dst, src, c)
	}
}

func BenchmarkAddMulSliceRef_4B(b *testing.B)    { benchAddMul(b, 4, false, AddMulSliceRef) }
func BenchmarkAddMulSliceRef_8B(b *testing.B)    { benchAddMul(b, 8, false, AddMulSliceRef) }
func BenchmarkAddMulSliceRef_17B(b *testing.B)   { benchAddMul(b, 17, false, AddMulSliceRef) }
func BenchmarkAddMulSliceRef_64B(b *testing.B)   { benchAddMul(b, 64, false, AddMulSliceRef) }
func BenchmarkAddMulSliceRef_100B(b *testing.B)  { benchAddMul(b, 100, false, AddMulSliceRef) }
func BenchmarkAddMulSliceRef_1KiB(b *testing.B)  { benchAddMul(b, 1024, false, AddMulSliceRef) }
func BenchmarkAddMulSliceRef_4KiB(b *testing.B)  { benchAddMul(b, 4096, false, AddMulSliceRef) }
func BenchmarkAddMulSliceRef_64KiB(b *testing.B) { benchAddMul(b, 64*1024, false, AddMulSliceRef) }
func BenchmarkAddMulSliceRefSparse_1KiB(b *testing.B) {
	benchAddMul(b, 1024, true, AddMulSliceRef)
}

func benchMul(b *testing.B, n int, f func(dst, src []byte, c byte)) {
	src := benchPayload(n, false)
	dst := make([]byte, n)
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(dst, src, byte(2+i%253))
	}
}

func BenchmarkMulSlice_1KiB(b *testing.B)    { benchMul(b, 1024, MulSlice) }
func BenchmarkMulSliceRef_1KiB(b *testing.B) { benchMul(b, 1024, MulSliceRef) }
