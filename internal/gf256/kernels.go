package gf256

// Slice kernels. The scalar kernels in vector.go walk the payload a
// byte at a time through the log/exp tables, paying a zero-test branch and
// two dependent table loads per byte. The kernels here use the split-nibble
// technique that production erasure-code libraries build their SIMD paths
// on: for a fixed coefficient c, the product c·x factors through the two
// nibbles of x,
//
//	c·x = c·(x & 0x0f)  ^  c·(x & 0xf0),
//
// so two 16-entry tables — one per nibble — cover all 256 products. Both
// tables fit in a single cache line, and the lookups are branch-free: the
// zero byte indexes the tables like any other value and contributes zero.
// The slice kernels load 8 source bytes per iteration as one 64-bit word,
// resolve the sixteen nibble lookups unrolled, reassemble the product word
// and XOR it into the destination word.
//
// On top of the word loop sit the SIMD tiers of kernels_amd64.go (AVX2
// VPSHUFB over the same nibble tables; GFNI/AVX-512, which multiplies 64
// bytes by a bit matrix in one instruction). Each is a kernel; the fastest
// one the machine has is picked once at init and named by Kernel.
//
// The byte-at-a-time implementations survive as mulSliceGeneric /
// addMulSliceGeneric: they remain the dispatch target for short slices
// (where a kernel's fixed cost is more than it saves) and serve as the
// reference oracle for the equivalence tests and fuzz target.

import (
	"encoding/binary"
	"sync/atomic"
)

// wordKernelMin is the slice length below which the word-parallel path is
// not worth the pointer chase for the cached nibble tables; short vectors
// (e.g. coefficient vectors of small codes) stay on the scalar kernels.
const wordKernelMin = 16

// nibTables holds the split-nibble product tables for one coefficient:
// lo[v] = c·v for the low nibble v, hi[v] = c·(v<<4) for the high nibble.
type nibTables struct {
	lo [16]byte
	hi [16]byte
}

// nibCache lazily caches the nibble tables for all 256 coefficients.
// Entries are built on first use and published with an atomic store, so
// concurrent encoder workers can race to build the same entry safely — the
// tables are deterministic, and the last writer simply re-publishes an
// identical value.
var nibCache [256]atomic.Pointer[nibTables]

// nibblesFor returns the split-nibble tables for coefficient c, building
// and caching them on first use.
func nibblesFor(c byte) *nibTables {
	if t := nibCache[c].Load(); t != nil {
		return t
	}
	t := &nibTables{}
	for v := 0; v < 16; v++ {
		t.lo[v] = Mul(c, byte(v))
		t.hi[v] = Mul(c, byte(v<<4))
	}
	nibCache[c].Store(t)
	return t
}

// mulByte is the scalar fallback for tail bytes: two nibble lookups.
func (t *nibTables) mulByte(x byte) byte {
	return t.lo[x&0x0f] ^ t.hi[x>>4]
}

// mulWord multiplies the 8 field elements packed in a little-endian word by
// the table's coefficient. All sixteen nibble lookups are unrolled; the
// masks keep every index provably in [0,16) so the compiler drops the
// bounds checks.
func (t *nibTables) mulWord(s uint64) uint64 {
	lo, hi := &t.lo, &t.hi
	r := uint64(lo[s&0xf]) ^ uint64(hi[(s>>4)&0xf])
	r |= (uint64(lo[(s>>8)&0xf]) ^ uint64(hi[(s>>12)&0xf])) << 8
	r |= (uint64(lo[(s>>16)&0xf]) ^ uint64(hi[(s>>20)&0xf])) << 16
	r |= (uint64(lo[(s>>24)&0xf]) ^ uint64(hi[(s>>28)&0xf])) << 24
	r |= (uint64(lo[(s>>32)&0xf]) ^ uint64(hi[(s>>36)&0xf])) << 32
	r |= (uint64(lo[(s>>40)&0xf]) ^ uint64(hi[(s>>44)&0xf])) << 40
	r |= (uint64(lo[(s>>48)&0xf]) ^ uint64(hi[(s>>52)&0xf])) << 48
	r |= (uint64(lo[(s>>56)&0xf]) ^ uint64(hi[s>>60])) << 56
	return r
}

// kernel is one tier of the slice kernels: an implementation of the
// AddMulSlice and MulSlice bodies for c ∉ {0, 1} on equal-length slices of
// at least min bytes. Shorter slices stay on the scalar log/exp loops.
type kernel struct {
	name   string
	min    int
	addMul func(dst, src []byte, c byte) // dst[i] ^= c·src[i]
	mul    func(dst, src []byte, c byte) // dst[i] = c·src[i]; dst may alias src exactly
}

// wordKernel is the portable tier, present on every platform.
var wordKernel = kernel{name: "word", min: wordKernelMin, addMul: addMulSliceWords, mul: mulSliceWords}

func addMulSliceWords(dst, src []byte, c byte) { addMulWords(dst, src, nibblesFor(c)) }

func mulSliceWords(dst, src []byte, c byte) { mulWords(dst, src, nibblesFor(c)) }

// active is the kernel AddMulSlice and MulSlice dispatch to: the first
// entry of kernels, the platform's list of usable tiers, fastest first
// (kernels_amd64.go, kernels_noasm.go). It is chosen once, at init, from
// what the CPU reports; tests assign it to reach the tiers dispatch did
// not pick.
var active = kernels[0]

// Kernel names the tier the slice kernels run on in this process:
// "gfni-avx512", "avx2" or "word".
func Kernel() string { return active.name }

// addMulWords is the word-parallel body of AddMulSlice for c ∉ {0, 1}:
// dst[i] ^= c·src[i], 8 bytes per iteration, no per-byte branches, then a
// byte loop for the last 0–7.
func addMulWords(dst, src []byte, t *nibTables) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		d := binary.LittleEndian.Uint64(dst[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^t.mulWord(s))
	}
	for ; i < n; i++ {
		dst[i] ^= t.mulByte(src[i])
	}
}

// mulWords is the word-parallel body of MulSlice for c ∉ {0, 1}:
// dst[i] = c·src[i]. dst and src may alias exactly.
func mulWords(dst, src []byte, t *nibTables) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], t.mulWord(s))
	}
	for ; i < n; i++ {
		dst[i] = t.mulByte(src[i])
	}
}
