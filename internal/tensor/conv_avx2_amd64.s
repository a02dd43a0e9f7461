// AVX2 data-movement bodies of the convolution (conv.go): the forward
// lowering's strip copy, the weight gradient's transposed panel and the
// input gradient's per-tap block add. The Go wrappers in
// conv_avx2_amd64.go check every length first, so nothing here tests a
// bound; conv_vec.go holds the portable bodies these must match bit for
// bit. Loads and stores are unaligned.
//
// Plan 9 operand order for VEX ops reverses Intel: `VOP s2, s1, d` is
// Intel's `VOP d, s1, s2`, and an immediate comes first. PCALIGN puts the
// head of the two copy loops on a 32-byte boundary.

#include "textflag.h"

// func lowerStripAVX2(dst, src *float32, offs *int, kc int)
//
// dst[p*8+c] = src[offs[p]+c] for p < kc (kc >= 1), c < 8: one 32-byte
// move per tap, four taps a turn.
TEXT ·lowerStripAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ offs+16(FP), R8
	MOVQ kc+24(FP), CX
	PCALIGN $32

strip4:
	CMPQ    CX, $4
	JLT     strip1
	MOVQ    (R8), AX
	MOVQ    8(R8), BX
	MOVQ    16(R8), DX
	MOVQ    24(R8), R9
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS (SI)(BX*4), Y1
	VMOVUPS (SI)(DX*4), Y2
	VMOVUPS (SI)(R9*4), Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $32, R8
	ADDQ    $128, DI
	SUBQ    $4, CX
	JMP     strip4

strip1:
	TESTQ   CX, CX
	JZ      stripdone
	MOVQ    (R8), AX
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS Y0, (DI)
	ADDQ    $8, R8
	ADDQ    $32, DI
	DECQ    CX
	JMP     strip1

stripdone:
	VZEROUPPER
	RET

// func panelTAVX2(dst, src *float32, offs *[8]int, rows, groups, srcStride, dstStride int)
//
// For r < rows (>= 1) and q < 8*groups (groups >= 1):
// dst[r*dstStride + q*8 + i] = src[r*srcStride + q + offs[i]], i < 8.
// Each group is one 8x8 transpose: taps i (offs[i]) x pixels q..q+7 in,
// pixels x taps out. Taps 0-3 load into the low lanes and taps 4-7 into
// the high lanes, so the transpose is two in-lane 4x4 transposes: 16
// shuffles, no lane crossing.
TEXT ·panelTAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ offs+16(FP), R8
	MOVQ 0(R8), AX
	MOVQ 8(R8), BX
	MOVQ 16(R8), CX
	MOVQ 24(R8), DX
	MOVQ 32(R8), R9
	MOVQ 40(R8), R10
	MOVQ 48(R8), R11
	MOVQ 56(R8), R8
	SHLQ $2, AX
	SHLQ $2, BX
	SHLQ $2, CX
	SHLQ $2, DX
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	SHLQ $2, R8
	MOVQ rows+24(FP), R12
	MOVQ groups+32(FP), R14

	// The strides become the byte skips from one row's last group to the
	// next row's first, kept in the argument slots.
	MOVQ R14, R13
	SHLQ $5, R13
	MOVQ srcStride+40(FP), R15
	SHLQ $2, R15
	SUBQ R13, R15
	MOVQ R15, srcStride+40(FP)
	SHLQ $3, R13
	MOVQ dstStride+48(FP), R15
	SHLQ $2, R15
	SUBQ R13, R15
	MOVQ R15, dstStride+48(FP)

ptrow:
	MOVQ R14, R13
	PCALIGN $32

ptgroup:
	VMOVUPS     (SI)(AX*1), X0
	VMOVUPS     (SI)(BX*1), X1
	VMOVUPS     (SI)(CX*1), X2
	VMOVUPS     (SI)(DX*1), X3
	VINSERTF128 $1, (SI)(R9*1), Y0, Y0
	VINSERTF128 $1, (SI)(R10*1), Y1, Y1
	VINSERTF128 $1, (SI)(R11*1), Y2, Y2
	VINSERTF128 $1, (SI)(R8*1), Y3, Y3
	VMOVUPS     16(SI)(AX*1), X4
	VMOVUPS     16(SI)(BX*1), X5
	VMOVUPS     16(SI)(CX*1), X6
	VMOVUPS     16(SI)(DX*1), X7
	VINSERTF128 $1, 16(SI)(R9*1), Y4, Y4
	VINSERTF128 $1, 16(SI)(R10*1), Y5, Y5
	VINSERTF128 $1, 16(SI)(R11*1), Y6, Y6
	VINSERTF128 $1, 16(SI)(R8*1), Y7, Y7

	// Lane l of Yj holds tap j+4l at four pixels; t = (j, j+1) pairs
	// interleaved, then each output gathers one pixel of all four.
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VSHUFPS   $0x44, Y10, Y8, Y0
	VSHUFPS   $0xEE, Y10, Y8, Y1
	VSHUFPS   $0x44, Y11, Y9, Y2
	VSHUFPS   $0xEE, Y11, Y9, Y3
	VUNPCKLPS Y5, Y4, Y8
	VUNPCKHPS Y5, Y4, Y9
	VUNPCKLPS Y7, Y6, Y10
	VUNPCKHPS Y7, Y6, Y11
	VSHUFPS   $0x44, Y10, Y8, Y4
	VSHUFPS   $0xEE, Y10, Y8, Y5
	VSHUFPS   $0x44, Y11, Y9, Y6
	VSHUFPS   $0xEE, Y11, Y9, Y7
	VMOVUPS   Y0, (DI)
	VMOVUPS   Y1, 32(DI)
	VMOVUPS   Y2, 64(DI)
	VMOVUPS   Y3, 96(DI)
	VMOVUPS   Y4, 128(DI)
	VMOVUPS   Y5, 160(DI)
	VMOVUPS   Y6, 192(DI)
	VMOVUPS   Y7, 224(DI)
	ADDQ      $32, SI
	ADDQ      $256, DI
	DECQ      R13
	JNZ       ptgroup

	ADDQ srcStride+40(FP), SI
	ADDQ dstStride+48(FP), DI
	DECQ R12
	JNZ  ptrow
	VZEROUPPER
	RET

// func addBlockAVX2(dst, src *float32, rows, cols, dstStride, srcStride int)
//
// dst[r*dstStride + j] += src[r*srcStride + j] for r < rows (>= 1),
// j < cols (>= 8). A row's last 8 elements are summed first, from dst as
// it was, and stored last: where that vector overlaps the row's whole
// vectors it stores the very sums they stored, so a row of any width >= 8
// needs no scalar tail. The running value is VADDPS's first source, as in
// addVecAVX2, so both NaN payloads resolve the same way.
TEXT ·addBlockAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ dstStride+32(FP), R10
	SHLQ $2, R10
	MOVQ srcStride+40(FP), R11
	SHLQ $2, R11
	MOVQ R9, R12
	SHLQ $2, R12
	SUBQ $32, R12

blockrow:
	VMOVUPS (DI)(R12*1), Y15
	VADDPS  (SI)(R12*1), Y15, Y15
	XORQ    AX, AX
	MOVQ    R9, CX

block32:
	CMPQ    CX, $32
	JLT     block8
	VMOVUPS (DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
	VADDPS  (SI)(AX*1), Y0, Y0
	VADDPS  32(SI)(AX*1), Y1, Y1
	VADDPS  64(SI)(AX*1), Y2, Y2
	VADDPS  96(SI)(AX*1), Y3, Y3
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ    $128, AX
	SUBQ    $32, CX
	JMP     block32

block8:
	CMPQ    CX, $8
	JLT     blocktail
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  (SI)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $8, CX
	JMP     block8

blocktail:
	VMOVUPS Y15, (DI)(R12*1)
	ADDQ    R10, DI
	ADDQ    R11, SI
	DECQ    R8
	JNZ     blockrow
	VZEROUPPER
	RET
