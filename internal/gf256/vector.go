package gf256

// Vector kernels. These are the hot paths for encoding and decoding: every
// coded block is produced and reduced through AddMulSlice. The exported
// entry points dispatch between two implementations: the scalar log/exp
// kernels below for short vectors, and the active kernel tier of kernels.go
// (GFNI/AVX-512, AVX2 or the pure-Go word loop) for anything at least its
// min bytes long.

// MulSlice sets dst[i] = c * src[i] for all i. dst and src must have the
// same length; dst and src may alias.
func MulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	if len(dst) >= active.min {
		active.mul(dst, src, c)
		return
	}
	mulSliceGeneric(dst, src, c)
}

// mulSliceGeneric is the scalar log/exp kernel behind MulSlice, retained
// for short slices and as the reference oracle. Callers guarantee equal
// lengths and c ∉ {0, 1}.
func mulSliceGeneric(dst, src []byte, c byte) {
	lc := _tables.log[c]
	exp := _tables.exp[lc : lc+255]
	for i, s := range src {
		if s == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = exp[_tables.log[s]]
	}
}

// AddMulSlice sets dst[i] ^= c * src[i] for all i — the fused
// multiply-accumulate at the heart of both encoding (folding a source block
// into a coded block with a random coefficient) and Gauss–Jordan row
// reduction. dst and src must have the same length.
func AddMulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: AddMulSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if len(dst) >= active.min {
		active.addMul(dst, src, c)
		return
	}
	if c == 1 {
		addSliceGeneric(dst, src)
		return
	}
	addMulSliceGeneric(dst, src, c)
}

// maxSlices is the most destinations one AddMulSlices call takes.
const maxSlices = 8

// AddMulSlices sets dst[k][i] ^= c[k] * src[i] for every k and i: one
// source folded into up to 8 destinations, the shape of a triangular
// solve that holds a group of rows. On the gfni-avx512 tier each chunk of
// src is loaded once for all of them; elsewhere it is one AddMulSlice per
// destination, and the bytes are the same either way. c has one entry per
// destination, every destination is as long as src, and src must not
// overlap any destination.
func AddMulSlices(dst [][]byte, src, c []byte) {
	if len(dst) != len(c) || len(dst) > maxSlices {
		panic("gf256: AddMulSlices needs one coefficient per destination, at most 8")
	}
	for _, d := range dst {
		if len(d) != len(src) {
			panic("gf256: AddMulSlices length mismatch")
		}
	}
	if len(dst) == 0 {
		return
	}
	if len(src) >= active.min {
		active.addMuls(dst, src, c)
		return
	}
	for k, d := range dst {
		AddMulSlice(d, src, c[k])
	}
}

// addMulSliceGeneric is the scalar log/exp kernel behind AddMulSlice,
// retained for short slices and as the reference oracle. Callers guarantee
// equal lengths and c ∉ {0, 1}.
func addMulSliceGeneric(dst, src []byte, c byte) {
	lc := _tables.log[c]
	exp := _tables.exp[lc : lc+255]
	for i, s := range src {
		if s != 0 {
			dst[i] ^= exp[_tables.log[s]]
		}
	}
}

// MulSliceRef and AddMulSliceRef run the full scalar reference pipeline —
// the zero/one special cases plus the generic log/exp kernel — bypassing
// the word-parallel dispatch. They exist for differential tests and for
// benchmarking the fast kernels against the historical baseline; production
// callers want MulSlice / AddMulSlice.

// MulSliceRef sets dst[i] = c * src[i] using only the scalar kernels.
func MulSliceRef(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSliceRef length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	mulSliceGeneric(dst, src, c)
}

// AddMulSliceRef sets dst[i] ^= c * src[i] using only the scalar kernels.
func AddMulSliceRef(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: AddMulSliceRef length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		addSliceGeneric(dst, src)
		return
	}
	addMulSliceGeneric(dst, src, c)
}

// AddSlice sets dst[i] ^= src[i] for all i. dst and src must have the same
// length. It is AddMulSlice with c = 1: from the active kernel's min
// bytes on, the kernel runs it (on gfni-avx512 as multiplication by the
// identity matrix).
func AddSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: AddSlice length mismatch")
	}
	if len(dst) >= active.min {
		active.addMul(dst, src, 1)
		return
	}
	addSliceGeneric(dst, src)
}

// addSliceGeneric is the byte loop behind AddSlice, kept for short slices
// and as the reference for c = 1.
func addSliceGeneric(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Dot returns the inner product sum_i a[i]*b[i] in GF(2^8). a and b must
// have the same length.
func Dot(a, b []byte) byte {
	if len(a) != len(b) {
		panic("gf256: Dot length mismatch")
	}
	var acc byte
	for i, x := range a {
		y := b[i]
		if x != 0 && y != 0 {
			acc ^= mulUnchecked(x, y)
		}
	}
	return acc
}

// ScaleInPlace multiplies every element of v by c.
func ScaleInPlace(v []byte, c byte) { MulSlice(v, v, c) }

// IsZero reports whether every element of v is zero.
func IsZero(v []byte) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}
