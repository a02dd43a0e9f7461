// AVX2 bodies of batch normalization's training passes (batchnorm.go):
// the channel sums, the normalize pass and the input-gradient pass. The Go
// wrappers in bn_avx2_amd64.go check every length first, so nothing here
// tests a bound; bnSumsGo, bnNormGo and bnGradGo are the portable bodies
// these match bit for bit. Loads and stores are unaligned.
//
// The sums keep one channel in each float64 lane. Four pixels of each of
// four channel planes load as four rows, a 4x4 transpose turns them into
// four pixel rows across the channels, and each row is widened
// (VCVTPS2PD) and added, row after row: every lane's sum takes its
// channel's elements in the (image, pixel) order of the scalar loop, and
// products of two widened floats are exact, so no bit moves. The eight-
// channel forms run two groups in one loop, four add chains in flight
// instead of two. Only VMULPx/VADDPx/VSUBPx round, never an FMA: Go on
// amd64 fuses nothing the Go bodies write.
//
// Plan 9 operand order for VEX ops reverses Intel: `VOP s2, s1, d` is
// Intel's `VOP d, s1, s2`, and an immediate comes first. Where both
// sources are NaN x86 returns the first one's payload, so each op takes as
// its first source the operand the compiled Go body does: the running
// element (v − mu, then ·inv, ·g, +b; gy·m, −s, −xh·sx, ·k) and, in the
// product of the sums, b. PCALIGN puts the head of each hot loop on a
// 32-byte boundary.

#include "textflag.h"

// TRANSPOSE4 turns rows r0-r3, four pixels of one channel each, into four
// rows of one pixel across the four channels; t0-t3 are clobbered.
#define TRANSPOSE4(r0, r1, r2, r3, t0, t1, t2, t3) \
	VUNPCKLPS r1, r0, t0;        \
	VUNPCKHPS r1, r0, t1;        \
	VUNPCKLPS r3, r2, t2;        \
	VUNPCKHPS r3, r2, t3;        \
	VSHUFPS   $0x44, t2, t0, r0; \
	VSHUFPS   $0xEE, t2, t0, r1; \
	VSHUFPS   $0x44, t3, t1, r2; \
	VSHUFPS   $0xEE, t3, t1, r3

// ACCA adds pixel row r into the sums S and its squares into Q.
#define ACCA(r, d, t, S, Q) \
	VCVTPS2PD r, d;    \
	VADDPD    d, S, S; \
	VMULPD    d, d, t; \
	VADDPD    t, Q, Q

// ACCAB adds pixel row ra into the sums S and ra·rb into P. The product
// takes rb as its first source, as bnSumsGo compiles: where both are NaN
// the result is rb's.
#define ACCAB(ra, rb, da, db, S, P) \
	VCVTPS2PD ra, da;      \
	VCVTPS2PD rb, db;      \
	VADDPD    da, S, S;    \
	VMULPD    da, db, db;  \
	VADDPD    db, P, P

// LOAD4 loads four pixels of each channel plane R10-R13, offset by idx.
#define LOAD4(idx, r0, r1, r2, r3) \
	VMOVUPS (R10)(idx*1), r0; \
	VMOVUPS (R11)(idx*1), r1; \
	VMOVUPS (R12)(idx*1), r2; \
	VMOVUPS (R13)(idx*1), r3

// GATHER1 loads one pixel of each channel plane R10-R13, offset by idx,
// into the lanes of r.
#define GATHER1(idx, r) \
	VMOVSS    (R10)(idx*1), r;           \
	VINSERTPS $0x10, (R11)(idx*1), r, r; \
	VINSERTPS $0x20, (R12)(idx*1), r, r; \
	VINSERTPS $0x30, (R13)(idx*1), r, r

#define QUADA(idx, S, Q) \
	LOAD4(idx, X0, X1, X2, X3);                  \
	TRANSPOSE4(X0, X1, X2, X3, X4, X5, X6, X7); \
	ACCA(X0, Y4, Y5, S, Q);                     \
	ACCA(X1, Y4, Y5, S, Q);                     \
	ACCA(X2, Y4, Y5, S, Q);                     \
	ACCA(X3, Y4, Y5, S, Q)

#define ONEA(idx, S, Q) \
	GATHER1(idx, X0); \
	ACCA(X0, Y4, Y5, S, Q)

#define QUADAB(ia, ib, S, P) \
	LOAD4(ia, X0, X1, X2, X3);                     \
	LOAD4(ib, X4, X5, X6, X7);                     \
	TRANSPOSE4(X0, X1, X2, X3, X8, X9, X10, X11); \
	TRANSPOSE4(X4, X5, X6, X7, X8, X9, X10, X11); \
	ACCAB(X0, X4, Y8, Y9, S, P);                  \
	ACCAB(X1, X5, Y8, Y9, S, P);                  \
	ACCAB(X2, X6, Y8, Y9, S, P);                  \
	ACCAB(X3, X7, Y8, Y9, S, P)

#define ONEAB(ia, ib, S, P) \
	GATHER1(ia, X0); \
	GATHER1(ib, X1); \
	ACCAB(X0, X1, Y8, Y9, S, P)

// SUMSETUP reads the arguments every sums form shares: SI the first
// group's plane in image 0, CX the images, R9 the image stride and R8 the
// plane in bytes, R14 the second group's offset (four planes on), AX 0.
// The four accumulators start at +0.
#define SUMSETUP(aoff, imgsoff, strideoff, planeoff) \
	MOVQ   aoff(FP), SI;       \
	MOVQ   imgsoff(FP), CX;    \
	MOVQ   strideoff(FP), R9;  \
	SHLQ   $2, R9;             \
	MOVQ   planeoff(FP), R8;   \
	SHLQ   $2, R8;             \
	MOVQ   R8, R14;            \
	SHLQ   $2, R14;            \
	XORQ   AX, AX;             \
	VXORPD Y12, Y12, Y12;      \
	VXORPD Y13, Y13, Y13;      \
	VXORPD Y14, Y14, Y14;      \
	VXORPD Y15, Y15, Y15

// PLANES points R10-R13 at the four planes of the image at SI.
#define PLANES \
	MOVQ SI, R10;          \
	LEAQ (SI)(R8*1), R11;  \
	LEAQ (R11)(R8*1), R12; \
	LEAQ (R12)(R8*1), R13

#define STEP(n) \
	ADDQ $n, R10; \
	ADDQ $n, R11; \
	ADDQ $n, R12; \
	ADDQ $n, R13

// func bnSumsA8AVX2(sa, sab *float64, a *float32, imgs, stride, plane int)
//
// For the eight channels j < 8 whose image-0 planes start at a + j*plane:
// sa[j] = Σ a, sab[j] = Σ a·a. imgs >= 1, plane >= 1.
TEXT ·bnSumsA8AVX2(SB), NOSPLIT, $0-48
	SUMSETUP(a+16, imgs+24, stride+32, plane+40)

a8img:
	PLANES
	MOVQ plane+40(FP), DX
	SHRQ $2, DX
	JZ   a8tail
	PCALIGN $32

a8quad:
	QUADA(AX, Y12, Y13)
	QUADA(R14, Y14, Y15)
	STEP(16)
	DECQ DX
	JNZ  a8quad

a8tail:
	MOVQ plane+40(FP), DX
	ANDQ $3, DX
	JZ   a8next

a8one:
	ONEA(AX, Y12, Y13)
	ONEA(R14, Y14, Y15)
	STEP(4)
	DECQ DX
	JNZ  a8one

a8next:
	ADDQ R9, SI
	DECQ CX
	JNZ  a8img
	MOVQ    sa+0(FP), DI
	VMOVUPD Y12, (DI)
	VMOVUPD Y14, 32(DI)
	MOVQ    sab+8(FP), DI
	VMOVUPD Y13, (DI)
	VMOVUPD Y15, 32(DI)
	VZEROUPPER
	RET

// func bnSumsA4AVX2(sa, sab *float64, a *float32, imgs, stride, plane int)
//
// bnSumsA8AVX2 for four channels.
TEXT ·bnSumsA4AVX2(SB), NOSPLIT, $0-48
	SUMSETUP(a+16, imgs+24, stride+32, plane+40)

a4img:
	PLANES
	MOVQ plane+40(FP), DX
	SHRQ $2, DX
	JZ   a4tail
	PCALIGN $32

a4quad:
	QUADA(AX, Y12, Y13)
	STEP(16)
	DECQ DX
	JNZ  a4quad

a4tail:
	MOVQ plane+40(FP), DX
	ANDQ $3, DX
	JZ   a4next

a4one:
	ONEA(AX, Y12, Y13)
	STEP(4)
	DECQ DX
	JNZ  a4one

a4next:
	ADDQ R9, SI
	DECQ CX
	JNZ  a4img
	MOVQ    sa+0(FP), DI
	VMOVUPD Y12, (DI)
	MOVQ    sab+8(FP), DI
	VMOVUPD Y13, (DI)
	VZEROUPPER
	RET

// func bnSumsAB8AVX2(sa, sab *float64, a, b *float32, imgs, stride, plane int)
//
// For the eight channels j < 8 whose image-0 planes start at a + j*plane
// and b + j*plane: sa[j] = Σ a, sab[j] = Σ a·b. imgs >= 1, plane >= 1.
// b is addressed off a's plane pointers: R15 = b − a, BX = R15 + R14.
TEXT ·bnSumsAB8AVX2(SB), NOSPLIT, $0-56
	SUMSETUP(a+16, imgs+32, stride+40, plane+48)
	MOVQ b+24(FP), R15
	SUBQ SI, R15
	LEAQ (R15)(R14*1), BX

ab8img:
	PLANES
	MOVQ plane+48(FP), DX
	SHRQ $2, DX
	JZ   ab8tail
	PCALIGN $32

ab8quad:
	QUADAB(AX, R15, Y12, Y13)
	QUADAB(R14, BX, Y14, Y15)
	STEP(16)
	DECQ DX
	JNZ  ab8quad

ab8tail:
	MOVQ plane+48(FP), DX
	ANDQ $3, DX
	JZ   ab8next

ab8one:
	ONEAB(AX, R15, Y12, Y13)
	ONEAB(R14, BX, Y14, Y15)
	STEP(4)
	DECQ DX
	JNZ  ab8one

ab8next:
	ADDQ R9, SI
	DECQ CX
	JNZ  ab8img
	MOVQ    sa+0(FP), DI
	VMOVUPD Y12, (DI)
	VMOVUPD Y14, 32(DI)
	MOVQ    sab+8(FP), DI
	VMOVUPD Y13, (DI)
	VMOVUPD Y15, 32(DI)
	VZEROUPPER
	RET

// func bnSumsAB4AVX2(sa, sab *float64, a, b *float32, imgs, stride, plane int)
//
// bnSumsAB8AVX2 for four channels.
TEXT ·bnSumsAB4AVX2(SB), NOSPLIT, $0-56
	SUMSETUP(a+16, imgs+32, stride+40, plane+48)
	MOVQ b+24(FP), R15
	SUBQ SI, R15

ab4img:
	PLANES
	MOVQ plane+48(FP), DX
	SHRQ $2, DX
	JZ   ab4tail
	PCALIGN $32

ab4quad:
	QUADAB(AX, R15, Y12, Y13)
	STEP(16)
	DECQ DX
	JNZ  ab4quad

ab4tail:
	MOVQ plane+48(FP), DX
	ANDQ $3, DX
	JZ   ab4next

ab4one:
	ONEAB(AX, R15, Y12, Y13)
	STEP(4)
	DECQ DX
	JNZ  ab4one

ab4next:
	ADDQ R9, SI
	DECQ CX
	JNZ  ab4img
	MOVQ    sa+0(FP), DI
	VMOVUPD Y12, (DI)
	MOVQ    sab+8(FP), DI
	VMOVUPD Y13, (DI)
	VZEROUPPER
	RET

// func bnNormAVX2(xh, out, x *float32, imgs, stride, plane int, mu, inv, gamma, beta float32)
//
// One channel, imgs >= 1 planes of plane >= 1 elements, stride apart:
// xh = (x − mu)·inv, out = gamma·xh + beta, thirty-two a turn, then eight,
// then one.
TEXT ·bnNormAVX2(SB), NOSPLIT, $0-64
	MOVQ         xh+0(FP), DI
	MOVQ         out+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         imgs+24(FP), CX
	MOVQ         stride+32(FP), R9
	SHLQ         $2, R9
	VBROADCASTSS mu+48(FP), Y12
	VBROADCASTSS inv+52(FP), Y13
	VBROADCASTSS gamma+56(FP), Y14
	VBROADCASTSS beta+60(FP), Y15

normimg:
	XORQ AX, AX
	MOVQ plane+40(FP), BX
	PCALIGN $32

norm32:
	CMPQ    BX, $32
	JLT     norm8
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS 32(SI)(AX*1), Y2
	VMOVUPS 64(SI)(AX*1), Y4
	VMOVUPS 96(SI)(AX*1), Y6
	VSUBPS  Y12, Y0, Y0
	VSUBPS  Y12, Y2, Y2
	VSUBPS  Y12, Y4, Y4
	VSUBPS  Y12, Y6, Y6
	VMULPS  Y13, Y0, Y0
	VMULPS  Y13, Y2, Y2
	VMULPS  Y13, Y4, Y4
	VMULPS  Y13, Y6, Y6
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y2, 32(DI)(AX*1)
	VMOVUPS Y4, 64(DI)(AX*1)
	VMOVUPS Y6, 96(DI)(AX*1)
	VMULPS  Y14, Y0, Y1
	VMULPS  Y14, Y2, Y3
	VMULPS  Y14, Y4, Y5
	VMULPS  Y14, Y6, Y7
	VADDPS  Y15, Y1, Y1
	VADDPS  Y15, Y3, Y3
	VADDPS  Y15, Y5, Y5
	VADDPS  Y15, Y7, Y7
	VMOVUPS Y1, (R8)(AX*1)
	VMOVUPS Y3, 32(R8)(AX*1)
	VMOVUPS Y5, 64(R8)(AX*1)
	VMOVUPS Y7, 96(R8)(AX*1)
	ADDQ    $128, AX
	SUBQ    $32, BX
	JMP     norm32

norm8:
	CMPQ    BX, $8
	JLT     norm1
	VMOVUPS (SI)(AX*1), Y0
	VSUBPS  Y12, Y0, Y0
	VMULPS  Y13, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	VMULPS  Y14, Y0, Y1
	VADDPS  Y15, Y1, Y1
	VMOVUPS Y1, (R8)(AX*1)
	ADDQ    $32, AX
	SUBQ    $8, BX
	JMP     norm8

norm1:
	TESTQ  BX, BX
	JZ     normnext
	VMOVSS (SI)(AX*1), X0
	VSUBSS X12, X0, X0
	VMULSS X13, X0, X0
	VMOVSS X0, (DI)(AX*1)
	VMULSS X14, X0, X1
	VADDSS X15, X1, X1
	VMOVSS X1, (R8)(AX*1)
	ADDQ   $4, AX
	DECQ   BX
	JMP    norm1

normnext:
	ADDQ R9, SI
	ADDQ R9, DI
	ADDQ R9, R8
	DECQ CX
	JNZ  normimg
	VZEROUPPER
	RET

// func bnGradAVX2(gx, gy, xh *float32, imgs, stride, plane int, k, m, s, sx float32)
//
// One channel, imgs >= 1 planes of plane >= 1 elements, stride apart:
// gx = k·((m·gy − s) − xh·sx), thirty-two a turn, then eight, then one.
TEXT ·bnGradAVX2(SB), NOSPLIT, $0-64
	MOVQ         gx+0(FP), DI
	MOVQ         gy+8(FP), SI
	MOVQ         xh+16(FP), DX
	MOVQ         imgs+24(FP), CX
	MOVQ         stride+32(FP), R9
	SHLQ         $2, R9
	VBROADCASTSS k+48(FP), Y12
	VBROADCASTSS m+52(FP), Y13
	VBROADCASTSS s+56(FP), Y14
	VBROADCASTSS sx+60(FP), Y15

gradimg:
	XORQ AX, AX
	MOVQ plane+40(FP), BX
	PCALIGN $32

grad32:
	CMPQ    BX, $32
	JLT     grad8
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS 32(SI)(AX*1), Y2
	VMOVUPS 64(SI)(AX*1), Y4
	VMOVUPS 96(SI)(AX*1), Y6
	VMULPS  Y13, Y0, Y0
	VMULPS  Y13, Y2, Y2
	VMULPS  Y13, Y4, Y4
	VMULPS  Y13, Y6, Y6
	VSUBPS  Y14, Y0, Y0
	VSUBPS  Y14, Y2, Y2
	VSUBPS  Y14, Y4, Y4
	VSUBPS  Y14, Y6, Y6
	VMOVUPS (DX)(AX*1), Y1
	VMOVUPS 32(DX)(AX*1), Y3
	VMOVUPS 64(DX)(AX*1), Y5
	VMOVUPS 96(DX)(AX*1), Y7
	VMULPS  Y15, Y1, Y1
	VMULPS  Y15, Y3, Y3
	VMULPS  Y15, Y5, Y5
	VMULPS  Y15, Y7, Y7
	VSUBPS  Y1, Y0, Y0
	VSUBPS  Y3, Y2, Y2
	VSUBPS  Y5, Y4, Y4
	VSUBPS  Y7, Y6, Y6
	VMULPS  Y12, Y0, Y0
	VMULPS  Y12, Y2, Y2
	VMULPS  Y12, Y4, Y4
	VMULPS  Y12, Y6, Y6
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y2, 32(DI)(AX*1)
	VMOVUPS Y4, 64(DI)(AX*1)
	VMOVUPS Y6, 96(DI)(AX*1)
	ADDQ    $128, AX
	SUBQ    $32, BX
	JMP     grad32

grad8:
	CMPQ    BX, $8
	JLT     grad1
	VMOVUPS (SI)(AX*1), Y0
	VMULPS  Y13, Y0, Y0
	VSUBPS  Y14, Y0, Y0
	VMOVUPS (DX)(AX*1), Y1
	VMULPS  Y15, Y1, Y1
	VSUBPS  Y1, Y0, Y0
	VMULPS  Y12, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $8, BX
	JMP     grad8

grad1:
	TESTQ  BX, BX
	JZ     gradnext
	VMOVSS (SI)(AX*1), X0
	VMULSS X13, X0, X0
	VSUBSS X14, X0, X0
	VMOVSS (DX)(AX*1), X1
	VMULSS X15, X1, X1
	VSUBSS X1, X0, X0
	VMULSS X12, X0, X0
	VMOVSS X0, (DI)(AX*1)
	ADDQ   $4, AX
	DECQ   BX
	JMP    grad1

gradnext:
	ADDQ R9, SI
	ADDQ R9, DX
	ADDQ R9, DI
	DECQ CX
	JNZ  gradimg
	VZEROUPPER
	RET
