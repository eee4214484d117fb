package gf256

import (
	"bytes"
	"testing"
)

// FuzzAddMulSliceEquiv asserts that every kernel tier this CPU has is
// byte-identical to the scalar reference for arbitrary payloads, lengths,
// alignments and coefficients — including the c == 0 and c == 1 special
// cases and slices short enough to skip the kernels entirely.
func FuzzAddMulSliceEquiv(f *testing.F) {
	f.Add([]byte{}, byte(0), uint8(0))
	f.Add([]byte{1}, byte(1), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, byte(2), uint8(3))
	f.Add(bytes.Repeat([]byte{0xff}, 33), byte(0x1d), uint8(1))
	f.Add(bytes.Repeat([]byte{0xa5, 0x00, 0x5a}, 50), byte(0x80), uint8(17))

	f.Fuzz(func(t *testing.T, data []byte, c byte, offset uint8) {
		// Carve an arbitrarily aligned window out of the input so the SIMD
		// kernel sees unaligned starts, then split the remainder into the
		// src/dst halves.
		if int(offset) > len(data) {
			offset = uint8(len(data))
		}
		data = data[offset:]
		n := len(data) / 2
		src := data[:n]
		dstRef := append([]byte(nil), data[n:n+n]...)
		AddMulSliceRef(dstRef, src, c)
		mulRef := make([]byte, n)
		MulSliceRef(mulRef, src, c)

		defer func(prev kernel) { active = prev }(active)
		for _, k := range kernels {
			active = k
			dstFast := append([]byte(nil), data[n:n+n]...)
			AddMulSlice(dstFast, src, c)
			if !bytes.Equal(dstFast, dstRef) {
				t.Fatalf("%s: AddMulSlice diverges from reference: n=%d c=%#02x", k.name, n, c)
			}

			mulFast := make([]byte, n)
			MulSlice(mulFast, src, c)
			if !bytes.Equal(mulFast, mulRef) {
				t.Fatalf("%s: MulSlice diverges from reference: n=%d c=%#02x", k.name, n, c)
			}
		}
	})
}

// FuzzAddMulSlicesEquiv asserts that AddMulSlices on every kernel tier is
// byte-identical to one AddMulSliceRef per destination, for arbitrary
// payloads, lengths, alignments and 1–8 coefficients (zeros, ones and
// repeats included).
func FuzzAddMulSlicesEquiv(f *testing.F) {
	f.Add([]byte{}, []byte{0}, uint8(0))
	f.Add([]byte{1, 2, 3}, []byte{1}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 99), []byte{0x1d, 0, 1}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xa5, 0x00, 0x5a}, 300), []byte{2, 2, 0, 1, 0x80, 0xff, 0x53, 7}, uint8(17))

	f.Fuzz(func(t *testing.T, data, c []byte, offset uint8) {
		if len(c) == 0 {
			return
		}
		c = c[:min(len(c), maxSlices)]
		if int(offset) > len(data) {
			offset = uint8(len(data))
		}
		data = data[offset:]
		// src, then one destination per coefficient, all n bytes long.
		n := len(data) / (1 + len(c))
		src := data[:n]
		want := make([][]byte, len(c))
		for k := range c {
			want[k] = append([]byte(nil), data[(1+k)*n:(2+k)*n]...)
			AddMulSliceRef(want[k], src, c[k])
		}

		defer func(prev kernel) { active = prev }(active)
		for _, kn := range kernels {
			active = kn
			dst := make([][]byte, len(c))
			for k := range c {
				dst[k] = append([]byte(nil), data[(1+k)*n:(2+k)*n]...)
			}
			AddMulSlices(dst, src, c)
			for k := range c {
				if !bytes.Equal(dst[k], want[k]) {
					t.Fatalf("%s: AddMulSlices destination %d diverges from reference: n=%d c=%x", kn.name, k, n, c)
				}
			}
		}
	})
}
