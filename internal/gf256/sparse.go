package gf256

import (
	"encoding/binary"
	"math/bits"
)

// Sparse kernels. A sparse coefficient vector is carried as parallel
// slices: strictly increasing positions idx and their nonzero values val.
// These entry points let encoders and eliminations work on the nonzero
// runs of such a vector without ever materializing the dense form.

// AddMulAt scatters dst[idx[i]] ^= c * val[i] for all i — the sparse
// counterpart of AddMulSlice. idx and val must have the same length and
// every index must be within dst.
func AddMulAt(dst []byte, idx []uint32, val []byte, c byte) {
	if len(idx) != len(val) {
		panic("gf256: AddMulAt length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i, j := range idx {
			dst[j] ^= val[i]
		}
		return
	}
	lc := _tables.log[c]
	exp := _tables.exp[lc : lc+255]
	for i, j := range idx {
		if v := val[i]; v != 0 {
			dst[j] ^= exp[_tables.log[v]]
		}
	}
}

// ScatterAt sets dst[idx[i]] = val[i] for all i — densifying a sparse
// vector into a (pre-zeroed) destination row.
func ScatterAt(dst []byte, idx []uint32, val []byte) {
	if len(idx) != len(val) {
		panic("gf256: ScatterAt length mismatch")
	}
	for i, j := range idx {
		dst[j] = val[i]
	}
}

// NextNonzero returns the smallest position p in [from, len(v)) with
// v[p] != 0, or len(v) when the tail is all zero. Zero runs are skipped a
// word at a time, which is what lets elimination over sparse or banded
// rows jump straight between nonzero columns.
func NextNonzero(v []byte, from int) int {
	i := from
	if i < 0 {
		i = 0
	}
	n := len(v)
	for ; i+8 <= n; i += 8 {
		if binary.LittleEndian.Uint64(v[i:]) != 0 {
			break
		}
	}
	for ; i < n; i++ {
		if v[i] != 0 {
			return i
		}
	}
	return n
}

// LastNonzero returns the largest position p in [from, len(v)) with
// v[p] != 0, or from-1 when that range is all zero — NextNonzero read
// from the right, for eliminations that walk a row from its last column.
func LastNonzero(v []byte, from int) int {
	if from < 0 {
		from = 0
	}
	i := len(v)
	for ; i-8 >= from; i -= 8 {
		if w := binary.LittleEndian.Uint64(v[i-8:]); w != 0 {
			return i - 8 + (63-bits.LeadingZeros64(w))/8
		}
	}
	for i--; i >= from; i-- {
		if v[i] != 0 {
			return i
		}
	}
	return from - 1
}

// CountNonzero returns how many bytes of v are nonzero, a word at a time.
func CountNonzero(v []byte) int {
	const low7 = 0x7f7f7f7f7f7f7f7f
	n, i := 0, 0
	for ; i+8 <= len(v); i += 8 {
		w := binary.LittleEndian.Uint64(v[i:])
		// Bit 7 of a byte of hi is set when the byte is nonzero: its low
		// seven bits carry into bit 7 if any is set, and w supplies bit 7.
		hi := ((w & low7) + low7 | w) &^ low7
		n += int((hi >> 7) * 0x0101010101010101 >> 56) // the sum of the 0/1 bytes
	}
	for ; i < len(v); i++ {
		if v[i] != 0 {
			n++
		}
	}
	return n
}
