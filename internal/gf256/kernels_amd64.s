//go:build amd64 && !purego

#include "textflag.h"

// AVX2 split-nibble kernels. The 16-entry low/high nibble product tables
// built in kernels.go are exactly a VPSHUFB shuffle control: broadcast each
// table into both 128-bit lanes of a YMM register and one VPSHUFB resolves
// 32 nibble lookups at once. Both kernels process 32 bytes per iteration;
// the Go wrappers guarantee n > 0 and n % 32 == 0 and handle the tail.

DATA nibbleMask<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+0x08(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+0x10(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+0x18(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA, $32

// func addMulNibblesAVX2(dst, src *byte, n int, tab *nibTables)
// dst[i] ^= c·src[i] for i in [0, n); n > 0, n % 32 == 0.
TEXT ·addMulNibblesAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), AX
	VBROADCASTI128 (AX), Y0      // low-nibble product table, both lanes
	VBROADCASTI128 16(AX), Y1    // high-nibble product table, both lanes
	VMOVDQU nibbleMask<>(SB), Y2

addmul_loop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4           // high nibbles (plus cross-byte garbage)
	VPAND   Y2, Y3, Y3           // low nibbles
	VPAND   Y2, Y4, Y4           // high nibbles, garbage masked
	VPSHUFB Y3, Y0, Y3           // c·(low nibble)
	VPSHUFB Y4, Y1, Y4           // c·(high nibble << 4)
	VPXOR   Y3, Y4, Y3           // c·src
	VPXOR   (DI), Y3, Y3         // dst ^= c·src
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     addmul_loop

	VZEROUPPER
	RET

// func mulNibblesAVX2(dst, src *byte, n int, tab *nibTables)
// dst[i] = c·src[i] for i in [0, n); n > 0, n % 32 == 0.
TEXT ·mulNibblesAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), AX
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	VMOVDQU nibbleMask<>(SB), Y2

mul_loop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mul_loop

	VZEROUPPER
	RET

// GFNI/AVX-512 kernels. VGF2P8AFFINEQB applies an 8×8 bit matrix over GF(2)
// to every byte of a ZMM register; multiplication by a fixed c in GF(2^8)
// is such a matrix (gfniMat in kernels_amd64.go), so one instruction
// multiplies 64 bytes. Four registers per iteration while 256 bytes remain,
// then one at a time, then a single iteration under a byte mask for the
// last 1–63: masked-off bytes are neither read nor written (faults on them
// are suppressed), so any n ≥ 0 is handled here and no Go tail loop runs.

// func addMulGFNI(dst, src *byte, n int, mat uint64)
// dst[i] ^= c·src[i] for i in [0, n).
TEXT ·addMulGFNI(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VPBROADCASTQ mat+24(FP), Z0  // the coefficient's bit matrix, all 8 lanes

	CMPQ CX, $256
	JB   addmul_gfni_64
addmul_gfni_loop256:
	VMOVDQU64 (SI), Z1
	VMOVDQU64 64(SI), Z2
	VMOVDQU64 128(SI), Z3
	VMOVDQU64 192(SI), Z4
	VGF2P8AFFINEQB $0, Z0, Z1, Z1
	VGF2P8AFFINEQB $0, Z0, Z2, Z2
	VGF2P8AFFINEQB $0, Z0, Z3, Z3
	VGF2P8AFFINEQB $0, Z0, Z4, Z4
	VPXORQ (DI), Z1, Z1
	VPXORQ 64(DI), Z2, Z2
	VPXORQ 128(DI), Z3, Z3
	VPXORQ 192(DI), Z4, Z4
	VMOVDQU64 Z1, (DI)
	VMOVDQU64 Z2, 64(DI)
	VMOVDQU64 Z3, 128(DI)
	VMOVDQU64 Z4, 192(DI)
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $256, CX
	CMPQ CX, $256
	JAE  addmul_gfni_loop256

addmul_gfni_64:
	CMPQ CX, $64
	JB   addmul_gfni_tail
addmul_gfni_loop64:
	VMOVDQU64 (SI), Z1
	VGF2P8AFFINEQB $0, Z0, Z1, Z1
	VPXORQ (DI), Z1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE  addmul_gfni_loop64

addmul_gfni_tail:
	TESTQ CX, CX
	JZ    addmul_gfni_done
	MOVQ  $-1, AX
	BZHIQ CX, AX, AX             // low CX bits set: one mask bit per byte left
	KMOVQ AX, K1
	VMOVDQU8.Z (SI), K1, Z1
	VMOVDQU8.Z (DI), K1, Z2
	VGF2P8AFFINEQB $0, Z0, Z1, Z1
	VPXORQ Z2, Z1, Z1
	VMOVDQU8 Z1, K1, (DI)

addmul_gfni_done:
	VZEROUPPER
	RET

// func mulGFNI(dst, src *byte, n int, mat uint64)
// dst[i] = c·src[i] for i in [0, n); dst may equal src.
TEXT ·mulGFNI(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VPBROADCASTQ mat+24(FP), Z0  // the coefficient's bit matrix, all 8 lanes

	CMPQ CX, $256
	JB   mul_gfni_64
mul_gfni_loop256:
	VMOVDQU64 (SI), Z1
	VMOVDQU64 64(SI), Z2
	VMOVDQU64 128(SI), Z3
	VMOVDQU64 192(SI), Z4
	VGF2P8AFFINEQB $0, Z0, Z1, Z1
	VGF2P8AFFINEQB $0, Z0, Z2, Z2
	VGF2P8AFFINEQB $0, Z0, Z3, Z3
	VGF2P8AFFINEQB $0, Z0, Z4, Z4
	VMOVDQU64 Z1, (DI)
	VMOVDQU64 Z2, 64(DI)
	VMOVDQU64 Z3, 128(DI)
	VMOVDQU64 Z4, 192(DI)
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $256, CX
	CMPQ CX, $256
	JAE  mul_gfni_loop256

mul_gfni_64:
	CMPQ CX, $64
	JB   mul_gfni_tail
mul_gfni_loop64:
	VMOVDQU64 (SI), Z1
	VGF2P8AFFINEQB $0, Z0, Z1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE  mul_gfni_loop64

mul_gfni_tail:
	TESTQ CX, CX
	JZ    mul_gfni_done
	MOVQ  $-1, AX
	BZHIQ CX, AX, AX             // low CX bits set: one mask bit per byte left
	KMOVQ AX, K1
	VMOVDQU8.Z (SI), K1, Z1
	VGF2P8AFFINEQB $0, Z0, Z1, Z1
	VMOVDQU8 Z1, K1, (DI)

mul_gfni_done:
	VZEROUPPER
	RET

// func cpuidex(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
