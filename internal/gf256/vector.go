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
	if c == 1 {
		AddSlice(dst, src)
		return
	}
	if len(dst) >= active.min {
		active.addMul(dst, src, c)
		return
	}
	addMulSliceGeneric(dst, src, c)
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
		AddSlice(dst, src)
		return
	}
	addMulSliceGeneric(dst, src, c)
}

// AddSlice sets dst[i] ^= src[i] for all i. dst and src must have the same
// length.
func AddSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: AddSlice length mismatch")
	}
	// Manual 8-way unroll; the compiler eliminates bounds checks on the
	// word-sized chunks.
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[i : i+8 : i+8]
		d[0] ^= s[0]
		d[1] ^= s[1]
		d[2] ^= s[2]
		d[3] ^= s[3]
		d[4] ^= s[4]
		d[5] ^= s[5]
		d[6] ^= s[6]
		d[7] ^= s[7]
	}
	for ; i < n; i++ {
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
