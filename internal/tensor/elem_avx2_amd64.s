// AVX2 bodies of the pointwise kernels in elem.go. Each takes a count n
// that is a positive multiple of 8 (the Go wrappers in elem_avx2_amd64.go
// finish the tail) and runs 32 elements a turn, then 8 a turn. Loads and
// stores are unaligned; a vector is fully loaded before the store to the
// same offset, so dst may be the very slice a source is (no other overlap).
//
// Plan 9 operand order for VEX ops reverses Intel: `VOP s2, s1, d` is
// Intel's `VOP d, s1, s2`. Which source is which matters three times here:
//
//   VADDPS  returns its FIRST source's payload when both are NaN. The
//           running value is kept as s1 and the bias as s2, the order
//           `row[j] += bias[j]` compiles to.
//   VMAXPS  returns its SECOND source when either is NaN and when both
//           are zeros of any sign. Zero must be s2: MAX(v, 0) is then
//           exactly `if !(v > 0) { v = 0 }` — NaN -> +0, -0 -> +0. With
//           the sources swapped NaN and -0 would pass through.
//   VCMPPS  $0x1e is GT_OQ, s1 > s2, false on NaN, never signalling.
//
// The gradient is gy * (1.0 AND mask), a multiply and not a blend, so that
// Inf * 0 = NaN and a NaN gradient stays NaN where y is zero.

#include "textflag.h"

DATA one32<>+0(SB)/4, $0x3f800000
GLOBL one32<>(SB), RODATA|NOPTR, $4

// func addVecAVX2(dst, src *float32, n int)
TEXT ·addVecAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

addvec32:
	CMPQ    CX, $32
	JLT     addvec8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VADDPS  (SI), Y0, Y0
	VADDPS  32(SI), Y1, Y1
	VADDPS  64(SI), Y2, Y2
	VADDPS  96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, CX
	JMP     addvec32

addvec8:
	TESTQ   CX, CX
	JZ      addvecdone
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     addvec8

addvecdone:
	VZEROUPPER
	RET

// func addConstAVX2(dst *float32, c float32, n int)
TEXT ·addConstAVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	VBROADCASTSS c+8(FP), Y15
	MOVQ         n+16(FP), CX

addconst32:
	CMPQ    CX, $32
	JLT     addconst8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VADDPS  Y15, Y0, Y0
	VADDPS  Y15, Y1, Y1
	VADDPS  Y15, Y2, Y2
	VADDPS  Y15, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     addconst32

addconst8:
	TESTQ   CX, CX
	JZ      addconstdone
	VMOVUPS (DI), Y0
	VADDPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     addconst8

addconstdone:
	VZEROUPPER
	RET

// func reluAVX2(dst, src *float32, n int)
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS Y15, Y15, Y15

relu32:
	CMPQ    CX, $32
	JLT     relu8
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMAXPS  Y15, Y0, Y0
	VMAXPS  Y15, Y1, Y1
	VMAXPS  Y15, Y2, Y2
	VMAXPS  Y15, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, CX
	JMP     relu32

relu8:
	TESTQ   CX, CX
	JZ      reludone
	VMOVUPS (SI), Y0
	VMAXPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     relu8

reludone:
	VZEROUPPER
	RET

// func reluBwdAVX2(dst, gy, y *float32, n int)
TEXT ·reluBwdAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         gy+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVQ         n+24(FP), CX
	VXORPS       Y15, Y15, Y15
	VBROADCASTSS one32<>(SB), Y14

relubwd32:
	CMPQ    CX, $32
	JLT     relubwd8
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS 64(DX), Y2
	VMOVUPS 96(DX), Y3
	VCMPPS  $0x1e, Y15, Y0, Y0
	VCMPPS  $0x1e, Y15, Y1, Y1
	VCMPPS  $0x1e, Y15, Y2, Y2
	VCMPPS  $0x1e, Y15, Y3, Y3
	VANDPS  Y14, Y0, Y0
	VANDPS  Y14, Y1, Y1
	VANDPS  Y14, Y2, Y2
	VANDPS  Y14, Y3, Y3
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VMULPS  Y0, Y4, Y4
	VMULPS  Y1, Y5, Y5
	VMULPS  Y2, Y6, Y6
	VMULPS  Y3, Y7, Y7
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, 64(DI)
	VMOVUPS Y7, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $128, DX
	SUBQ    $32, CX
	JMP     relubwd32

relubwd8:
	TESTQ   CX, CX
	JZ      relubwddone
	VMOVUPS (DX), Y0
	VCMPPS  $0x1e, Y15, Y0, Y0
	VANDPS  Y14, Y0, Y0
	VMOVUPS (SI), Y4
	VMULPS  Y0, Y4, Y4
	VMOVUPS Y4, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $8, CX
	JMP     relubwd8

relubwddone:
	VZEROUPPER
	RET
