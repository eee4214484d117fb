//go:build amd64 && !purego

package gf256

// SIMD tiers. Feature detection is done once at init via CPUID/XGETBV (the
// OS must have enabled the vector state, not just the CPU the instruction),
// and the fastest tier the machine has becomes the active kernel:
//
//   - gfni-avx512: VGF2P8AFFINEQB multiplies 64 bytes by one coefficient in
//     a single instruction, given the coefficient as an 8×8 bit matrix. A
//     masked last iteration covers lengths that are not a multiple of 64,
//     so one assembly call handles any length.
//   - avx2: the split-nibble tables of kernels.go map directly onto
//     VPSHUFB — one shuffle resolves 32 nibble lookups — for the
//     32-byte-aligned bulk; the word loop finishes the last 0–31 bytes.
//   - word: the pure-Go loop.

//go:noescape
func addMulGFNI(dst, src *byte, n int, mat uint64)

//go:noescape
func mulGFNI(dst, src *byte, n int, mat uint64)

//go:noescape
func addMulNibblesAVX2(dst, src *byte, n int, tab *nibTables)

//go:noescape
func mulNibblesAVX2(dst, src *byte, n int, tab *nibTables)

func cpuidex(op, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// gfniMin is the length from which the GFNI tier takes over from the
// scalar log/exp loop. Below 64 bytes a call is one masked iteration and
// costs the same whatever the length — 11.5 ns in BenchmarkAddMulSlice_8B
// and _17B, harness included — while the scalar loop costs about a
// nanosecond a byte (7.5 ns at 4 B, 11 ns at 8 B, 20 ns at 17 B in the Ref
// benchmarks): they cross at 8.
const gfniMin = 8

// gfniMat[c] is multiplication by c as the 8×8 bit matrix VGF2P8AFFINEQB
// takes: result bit i is the parity of (matrix byte 7-i AND x), so byte
// 7-i holds, at bit j, bit i of c·2^j. The field is 0x11D; VGF2P8MULB is
// hard-wired to the AES polynomial 0x11B and cannot be used.
var gfniMat = buildGFNIMatrices()

func buildGFNIMatrices() *[256]uint64 {
	var mats [256]uint64
	for c := range mats {
		var m uint64
		for j := 0; j < 8; j++ {
			p := Mul(byte(c), 1<<j)
			for i := 0; i < 8; i++ {
				if p>>i&1 != 0 {
					m |= 1 << (8*(7-i) + j)
				}
			}
		}
		mats[c] = m
	}
	return &mats
}

var kernels = availableKernels()

func availableKernels() []kernel {
	avx2, gfni512 := detectSIMD()
	var ks []kernel
	if gfni512 {
		ks = append(ks, kernel{name: "gfni-avx512", min: gfniMin, addMul: addMulSliceGFNI, mul: mulSliceGFNI})
	}
	if avx2 {
		ks = append(ks, kernel{name: "avx2", min: wordKernelMin, addMul: addMulSliceAVX2, mul: mulSliceAVX2})
	}
	return append(ks, wordKernel)
}

func addMulSliceGFNI(dst, src []byte, c byte) {
	addMulGFNI(&dst[0], &src[0], len(dst), gfniMat[c])
}

func mulSliceGFNI(dst, src []byte, c byte) {
	mulGFNI(&dst[0], &src[0], len(dst), gfniMat[c])
}

func addMulSliceAVX2(dst, src []byte, c byte) {
	t := nibblesFor(c)
	if n := len(dst) &^ 31; n > 0 {
		addMulNibblesAVX2(&dst[0], &src[0], n, t)
		dst, src = dst[n:], src[n:]
	}
	addMulWords(dst, src, t)
}

func mulSliceAVX2(dst, src []byte, c byte) {
	t := nibblesFor(c)
	if n := len(dst) &^ 31; n > 0 {
		mulNibblesAVX2(&dst[0], &src[0], n, t)
		dst, src = dst[n:], src[n:]
	}
	mulWords(dst, src, t)
}

// detectSIMD reports which SIMD tiers the CPU has and the OS has enabled.
func detectSIMD() (avx2, gfni512 bool) {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false, false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set by the OS.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false, false
	}
	_, ebx7, ecx7, _ := cpuidex(7, 0)
	const (
		avx2Bit = 1 << 5  // EBX
		bmi2    = 1 << 8  // EBX; BZHI builds the tail mask
		avx512f = 1 << 16 // EBX
		avx512b = 1 << 30 // EBX; AVX512BW, byte-granular masks
		gfni    = 1 << 8  // ECX
		// XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM.
		zmmState = 0xe6
	)
	avx2 = ebx7&avx2Bit != 0
	const need512 = bmi2 | avx512f | avx512b
	gfni512 = ebx7&need512 == need512 && ecx7&gfni != 0 && xcr0&zmmState == zmmState
	return avx2, gfni512
}
