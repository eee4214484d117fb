package core

import (
	"encoding/binary"

	"repro/internal/gf256"
)

// Seeded coefficients. A dense coded block's coefficient vector is zero
// outside its scheme support [lo, hi) and, inside it, the first hi-lo
// bytes of one 64-bit seed's expansion: the stream below. So a freshly
// encoded block's code is a pure function of (seed, support), and the v5
// wire frame ships those 16 bytes instead of the N-byte vector (the
// paper's Sec. 4 common random seed, applied to the code itself).
//
// The stream is owned by this package and pinned by a test of its first
// bytes: splitmix64 words, each read low byte first, with zero bytes
// skipped — so every coefficient is uniform over the 255 nonzero field
// elements, and the ~97 % of words without a zero byte are copied or
// compared eight bytes at a time.

// seedGamma is splitmix64's Weyl increment.
const seedGamma = 0x9E3779B97F4A7C15

// seedStream is the expansion state of one seed.
type seedStream uint64

// word returns the stream's next 64-bit word.
func (s *seedStream) word() uint64 {
	*s += seedGamma
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// hasZeroByte reports whether any byte of z is zero.
func hasZeroByte(z uint64) bool {
	return (z-0x0101010101010101)&^z&0x8080808080808080 != 0
}

// expandSeed fills dst with the first len(dst) bytes of seed's stream.
func expandSeed(dst []byte, seed uint64) {
	s := seedStream(seed)
	for i := 0; i < len(dst); {
		z := s.word()
		if len(dst)-i >= 8 && !hasZeroByte(z) {
			binary.LittleEndian.PutUint64(dst[i:], z)
			i += 8
			continue
		}
		// Once z is zero only zero bytes, which the stream skips, remain.
		for ; z != 0 && i < len(dst); z >>= 8 {
			if c := byte(z); c != 0 {
				dst[i] = c
				i++
			}
		}
	}
}

// seedMatches reports whether coeff is the first len(coeff) bytes of
// seed's stream, without materializing the stream.
func seedMatches(coeff []byte, seed uint64) bool {
	s := seedStream(seed)
	for i := 0; i < len(coeff); {
		z := s.word()
		if len(coeff)-i >= 8 && !hasZeroByte(z) {
			if binary.LittleEndian.Uint64(coeff[i:]) != z {
				return false
			}
			i += 8
			continue
		}
		for ; z != 0 && i < len(coeff); z >>= 8 {
			if c := byte(z); c != 0 {
				if coeff[i] != c {
					return false
				}
				i++
			}
		}
	}
	return true
}

// seedSupport returns the support [lo, hi) the v5 seed frame would ship
// for b — ok only when b still carries its seed, its dense Coeff is that
// seed's expansion over [lo, hi) and zero elsewhere, and the seed frame
// is smaller than the dense one (at N = 16 it is not). Every nonzero
// expansion byte makes the support the first and last nonzero columns.
func (b *CodedBlock) seedSupport() (lo, hi int, ok bool) {
	n := len(b.Coeff)
	if !b.seeded || b.SpCoeff != nil || !seedFrameFits(b.Object, n) {
		return 0, 0, false
	}
	if lo = gf256.NextNonzero(b.Coeff, 0); lo == n {
		return 0, 0, false
	}
	hi = gf256.LastNonzero(b.Coeff, lo) + 1
	return lo, hi, seedMatches(b.Coeff[lo:hi], b.seed)
}

// seedFrameFits reports whether a dense block of obj with n coefficients
// marshals as a v5 seed frame when it carries its seed: the frame exists
// for n and is smaller than the v1/v2 one.
func seedFrameFits(obj ObjectID, n int) bool {
	return n <= maxSeedCoeffLen && wireSeedHeader < headerSize(obj)+n
}
