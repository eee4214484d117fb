//go:build amd64 && !purego

package gf256

import (
	"math/bits"
	"testing"
)

// TestGFNIMatrices applies every coefficient's bit matrix to every byte the
// way VGF2P8AFFINEQB defines it — result bit i is the parity of matrix byte
// 7-i AND x — in plain Go, so the layout is pinned against Mul even on an
// amd64 machine without GFNI.
func TestGFNIMatrices(t *testing.T) {
	for c := 0; c < 256; c++ {
		m := gfniMat[c]
		for x := 0; x < 256; x++ {
			var got byte
			for i := 0; i < 8; i++ {
				row := byte(m >> (8 * (7 - i)))
				got |= byte(bits.OnesCount8(row&byte(x))&1) << i
			}
			if want := Mul(byte(c), byte(x)); got != want {
				t.Fatalf("matrix(%#02x) applied to %#02x = %#02x, want %#02x", c, x, got, want)
			}
		}
	}
}
