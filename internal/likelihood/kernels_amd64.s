//go:build amd64 && !purego

#include "textflag.h"

// AVX2 implementations of the kernel table's entries (see
// kernels_dispatch.go and docs/kernels.md). All are written to be
// bit-identical to their scalar references: every 4-term dot product is
// a VMULPD followed by the VHADDPD / VPERM2F128 / VBLENDPD / VADDPD
// combine — the same pairwise association the scalar code spells out —
// and no FMA contraction is used anywhere, so scalar and asm round
// identically at every step.

// scaleThresh = 1e-256, scaleFact = 1e256 (engine.go constants),
// one = 1.0, tiny = math.SmallestNonzeroFloat64.
DATA scaleThresh<>+0(SB)/8, $0x0AC8062864AC6F43
GLOBL scaleThresh<>(SB), RODATA, $8
DATA scaleFact<>+0(SB)/8, $0x75154FDD7F73BF3C
GLOBL scaleFact<>(SB), RODATA, $8
DATA one<>+0(SB)/8, $0x3FF0000000000000
GLOBL one<>(SB), RODATA, $8
DATA tiny<>+0(SB)/8, $0x0000000000000001
GLOBL tiny<>(SB), RODATA, $8

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// matvec4(matrix at mbase, lane vector in Y0) -> dot vector in Ydst.
// t_r = P[r] .* c (VMULPD); h01 = [t0lo t1lo t0hi t1hi],
// h23 = [t2lo t3lo t2hi t3hi] (VHADDPD); perm = [t0hi t1hi t2lo t3lo],
// blend = [t0lo t1lo t2hi t3hi]; dst = perm + blend = row dots.
#define MATVEC4(mbase, moff, dst) \
	VMULPD  moff+0(mbase), Y0, Y1  \
	VMULPD  moff+32(mbase), Y0, Y2 \
	VMULPD  moff+64(mbase), Y0, Y3 \
	VMULPD  moff+96(mbase), Y0, Y4 \
	VHADDPD Y2, Y1, Y5             \
	VHADDPD Y4, Y3, Y6             \
	VPERM2F128 $0x21, Y6, Y5, Y7   \
	VBLENDPD $12, Y6, Y5, Y8       \
	VADDPD  Y8, Y7, dst

// One GAMMA category of the inner×inner newview: lane block c of the
// left/right child CLVs through matrices c of pL/pR, product stored to
// dst, running max in Y12.
#define NVCAT(c) \
	VMOVUPD (c*32)(SI), Y0   \
	MATVEC4(R8, c*128, Y9)   \
	VMOVUPD (c*32)(DX), Y0   \
	MATVEC4(R9, c*128, Y10)  \
	VMULPD  Y10, Y9, Y11     \
	VMOVUPD Y11, (c*32)(DI)  \
	VMAXPD  Y11, Y12, Y12

// func newviewII4AVX2(n int, dst, lv, rv *float64, pL, pR *[16]float64, lsc, rsc, dsc *int32)
TEXT ·newviewII4AVX2(SB), NOSPLIT, $0-72
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ lv+16(FP), SI
	MOVQ rv+24(FP), DX
	MOVQ pL+32(FP), R8
	MOVQ pR+40(FP), R9
	MOVQ lsc+48(FP), R10
	MOVQ rsc+56(FP), R11
	MOVQ dsc+64(FP), R12
	VBROADCASTSD scaleFact<>(SB), Y13
	VMOVSD scaleThresh<>(SB), X15

nvloop:
	VXORPD Y12, Y12, Y12
	NVCAT(0)
	NVCAT(1)
	NVCAT(2)
	NVCAT(3)

	// dsc = lsc + rsc (+1 on rescale)
	MOVL (R10), AX
	ADDL (R11), AX

	// horizontal max of the 16 lanes, compare against the threshold
	VEXTRACTF128 $1, Y12, X0
	VMAXPD X0, X12, X1
	VPERMILPD $1, X1, X2
	VMAXSD X2, X1, X1
	VUCOMISD X15, X1
	JAE nvstore

	// rare path: every lane below threshold, multiply block by 1e256
	VMULPD 0(DI), Y13, Y0
	VMOVUPD Y0, 0(DI)
	VMULPD 32(DI), Y13, Y0
	VMOVUPD Y0, 32(DI)
	VMULPD 64(DI), Y13, Y0
	VMOVUPD Y0, 64(DI)
	VMULPD 96(DI), Y13, Y0
	VMOVUPD Y0, 96(DI)
	INCL AX

nvstore:
	MOVL AX, (R12)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ $4, R12
	DECQ CX
	JNZ nvloop
	VZEROUPPER
	RET

// func newviewTT4AVX2(n int, dst *float64, codesL, codesR *msa.State, lutL, lutR *float64, dsc *int32)
TEXT ·newviewTT4AVX2(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ codesL+16(FP), R8
	MOVQ codesR+24(FP), R9
	MOVQ lutL+32(FP), SI
	MOVQ lutR+40(FP), DX
	MOVQ dsc+48(FP), R12
	VBROADCASTSD scaleFact<>(SB), Y13
	VMOVSD scaleThresh<>(SB), X15

tt4loop:
	// code block offsets: state * 16 lanes * 8 bytes
	MOVBLZX (R8), AX
	SHLQ $7, AX
	MOVBLZX (R9), BX
	SHLQ $7, BX
	VXORPD Y12, Y12, Y12
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  (DX)(BX*1), Y0, Y1
	VMOVUPD Y1, (DI)
	VMAXPD  Y1, Y12, Y12
	VMOVUPD 32(SI)(AX*1), Y0
	VMULPD  32(DX)(BX*1), Y0, Y1
	VMOVUPD Y1, 32(DI)
	VMAXPD  Y1, Y12, Y12
	VMOVUPD 64(SI)(AX*1), Y0
	VMULPD  64(DX)(BX*1), Y0, Y1
	VMOVUPD Y1, 64(DI)
	VMAXPD  Y1, Y12, Y12
	VMOVUPD 96(SI)(AX*1), Y0
	VMULPD  96(DX)(BX*1), Y0, Y1
	VMOVUPD Y1, 96(DI)
	VMAXPD  Y1, Y12, Y12

	XORL R13, R13
	VEXTRACTF128 $1, Y12, X0
	VMAXPD X0, X12, X1
	VPERMILPD $1, X1, X2
	VMAXSD X2, X1, X1
	VUCOMISD X15, X1
	JAE tt4store

	VMULPD 0(DI), Y13, Y0
	VMOVUPD Y0, 0(DI)
	VMULPD 32(DI), Y13, Y0
	VMOVUPD Y0, 32(DI)
	VMULPD 64(DI), Y13, Y0
	VMOVUPD Y0, 64(DI)
	VMULPD 96(DI), Y13, Y0
	VMOVUPD Y0, 96(DI)
	MOVL $1, R13

tt4store:
	MOVL R13, (R12)
	ADDQ $128, DI
	INCQ R8
	INCQ R9
	ADDQ $4, R12
	DECQ CX
	JNZ tt4loop
	VZEROUPPER
	RET

// One GAMMA category of the tip×inner newview: the inner child's lane
// block through matrix c of pm, scaled elementwise by the tip's lookup
// block (base SI + code offset AX), running max in Y12.
#define TICAT(c) \
	VMOVUPD (c*32)(DX), Y0          \
	MATVEC4(R9, c*128, Y9)          \
	VMULPD  (c*32)(SI)(AX*1), Y9, Y11 \
	VMOVUPD Y11, (c*32)(DI)         \
	VMAXPD  Y11, Y12, Y12

// func newviewTI4AVX2(n int, dst *float64, codes *msa.State, lut, iv *float64, pm *[16]float64, isc, dsc *int32)
TEXT ·newviewTI4AVX2(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ codes+16(FP), R8
	MOVQ lut+24(FP), SI
	MOVQ iv+32(FP), DX
	MOVQ pm+40(FP), R9
	MOVQ isc+48(FP), R10
	MOVQ dsc+56(FP), R12
	VBROADCASTSD scaleFact<>(SB), Y13
	VMOVSD scaleThresh<>(SB), X15

ti4loop:
	MOVBLZX (R8), AX
	SHLQ $7, AX
	VXORPD Y12, Y12, Y12
	TICAT(0)
	TICAT(1)
	TICAT(2)
	TICAT(3)

	MOVL (R10), BX
	VEXTRACTF128 $1, Y12, X0
	VMAXPD X0, X12, X1
	VPERMILPD $1, X1, X2
	VMAXSD X2, X1, X1
	VUCOMISD X15, X1
	JAE ti4store

	VMULPD 0(DI), Y13, Y0
	VMOVUPD Y0, 0(DI)
	VMULPD 32(DI), Y13, Y0
	VMOVUPD Y0, 32(DI)
	VMULPD 64(DI), Y13, Y0
	VMOVUPD Y0, 64(DI)
	VMULPD 96(DI), Y13, Y0
	VMOVUPD Y0, 96(DI)
	INCL BX

ti4store:
	MOVL BX, (R12)
	ADDQ $128, DI
	ADDQ $128, DX
	INCQ R8
	ADDQ $4, R10
	ADDQ $4, R12
	DECQ CX
	JNZ ti4loop
	VZEROUPPER
	RET

// One derivative order of the makenewz core: 16-term dot of the
// sumtable block (Y0..Y3) against the factor block at foff(R11),
// reduced (s0+s1)+(s2+s3) into the low lane of dst (an X register).
#define MKZDOT(foff, dst) \
	VMULPD  foff+0(R11), Y0, Y4  \
	VMULPD  foff+32(R11), Y1, Y5 \
	VMULPD  foff+64(R11), Y2, Y6 \
	VMULPD  foff+96(R11), Y3, Y7 \
	VHADDPD Y5, Y4, Y8           \
	VHADDPD Y7, Y6, Y9           \
	VPERM2F128 $0x21, Y9, Y8, Y10 \
	VBLENDPD $12, Y9, Y8, Y11    \
	VADDPD  Y11, Y10, Y8         \
	VHADDPD Y8, Y8, Y9           \
	VEXTRACTF128 $1, Y9, X10     \
	VADDSD  X10, X9, dst

// func mkzCoreG4AVX2(n int, tbl *float64, w *int, pw *float64) (d1, d2 float64)
TEXT ·mkzCoreG4AVX2(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), CX
	MOVQ tbl+8(FP), SI
	MOVQ w+16(FP), R10
	MOVQ pw+24(FP), R11
	VXORPD X12, X12, X12 // s1
	VXORPD X13, X13, X13 // s2

mkzloop:
	MOVQ (R10), BX
	ADDQ $8, R10
	TESTQ BX, BX
	JEQ mkznext

	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3

	MKZDOT(0, X14)   // siteL
	VUCOMISD tiny<>(SB), X14
	JB mkznext       // siteL < SmallestNonzeroFloat64: dead pattern

	MKZDOT(128, X15) // siteD1
	MKZDOT(256, X11) // siteD2

	VMOVSD one<>(SB), X10
	VDIVSD X14, X10, X10     // inv = 1 / siteL (the only division)
	VMULSD X10, X15, X9      // ratio = siteD1 * inv
	VCVTSI2SDQ BX, X8, X8    // wk as float64
	VMULSD X9, X8, X7        // wk * ratio
	VADDSD X7, X12, X12      // s1 += wk * ratio
	VMULSD X10, X11, X6      // siteD2 * inv
	VMULSD X9, X9, X5        // ratio^2
	VSUBSD X5, X6, X6        // siteD2*inv - ratio^2
	VMULSD X6, X8, X6        // * wk
	VADDSD X6, X13, X13      // s2 += ...

mkznext:
	ADDQ $128, SI
	DECQ CX
	JNZ mkzloop
	VMOVSD X12, d1+32(FP)
	VMOVSD X13, d2+40(FP)
	VZEROUPPER
	RET

// CONST4 defines a 32-byte read-only vector holding four copies of the
// 64-bit pattern v — the broadcast constants of the blocked logarithm,
// used as memory operands.
#define CONST4(name, v) \
	DATA name<>+0(SB)/8, $v  \
	DATA name<>+8(SB)/8, $v  \
	DATA name<>+16(SB)/8, $v \
	DATA name<>+24(SB)/8, $v \
	GLOBL name<>(SB), RODATA, $32

CONST4(logMinNormal, 0x0010000000000000)
CONST4(logMaxFinite, 0x7FEFFFFFFFFFFFFF)
CONST4(logMantMask, 0x000FFFFFFFFFFFFF)
CONST4(logHSqrt2Mant, 0x0006A09E667F3BCD)
CONST4(logBias, 0x00000000000003FF)
CONST4(logMagic, 0x4338000000000000) // 2^52+2^51, as integer bias and as double
CONST4(logOne, 0x3FF0000000000000)
CONST4(logTwo, 0x4000000000000000)
CONST4(logHalf, 0x3FE0000000000000)
CONST4(logLn2Hi, 0x3FE62E42FEE00000)
CONST4(logLn2Lo, 0x3DEA39EF35793C76)
CONST4(logL1, 0x3FE5555555555593)
CONST4(logL2, 0x3FD999999997FA04)
CONST4(logL3, 0x3FD2492494229359)
CONST4(logL4, 0x3FCC71C51D8E78AF)
CONST4(logL5, 0x3FC7466496CB03DE)
CONST4(logL6, 0x3FC39A09D078C69F)
CONST4(logL7, 0x3FC2F112DF3E5244)

// func logBlockAVX2(n int, dst, src *float64) (special int)
//
// dst[i] = log(src[i]) for i < n, n a positive multiple of 4, by the
// operation sequence of logBlockScalar (kernels_log.go) four lanes at a
// time: the same range reduction in integer lanes, the same VDIVPD /
// VMULPD / VADDPD / VSUBPD in the same order, no FMA. Lanes that are
// not positive normal numbers get garbage; special is non-zero when
// there was one, and the Go wrapper redoes those through math.Log.
TEXT ·logBlockAVX2(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	VPXOR Y15, Y15, Y15 // special-lane accumulator

logloop:
	VMOVDQU (SI), Y0
	// special: bits < minNormal as signed (zero, subnormal, negative)
	// or bits > maxFinite (Inf, NaN)
	VMOVDQU  logMinNormal<>(SB), Y1
	VPCMPGTQ Y0, Y1, Y2
	VPCMPGTQ logMaxFinite<>(SB), Y0, Y3
	VPOR     Y2, Y15, Y15
	VPOR     Y3, Y15, Y15

	// f1, k = frexp(x); when f1 <= sqrt(2)/2, f1 *= 2 and k -= 1 — all
	// exact, so done on the exponent fields: Y3 = -1 where the
	// mantissa is above sqrt(2)/2's (no doubling), 0 elsewhere.
	VPAND    logMantMask<>(SB), Y0, Y2
	VPSRLQ   $52, Y0, Y1
	VPCMPGTQ logHSqrt2Mant<>(SB), Y2, Y3
	VPADDQ   logBias<>(SB), Y3, Y4   // 0x3FF, or 0x3FE without doubling
	VPSLLQ   $52, Y4, Y4
	VPOR     Y4, Y2, Y2              // f1
	VPSUBQ   logBias<>(SB), Y1, Y1
	VPSUBQ   Y3, Y1, Y1              // k as int64
	VPADDQ   logMagic<>(SB), Y1, Y1
	VSUBPD   logMagic<>(SB), Y1, Y1  // k as float64 (exact)

	VSUBPD logOne<>(SB), Y2, Y2      // f = f1 - 1
	VADDPD logTwo<>(SB), Y2, Y3
	VDIVPD Y3, Y2, Y3                // s = f / (2 + f)
	VMULPD Y3, Y3, Y4                // s2
	VMULPD Y4, Y4, Y5                // s4
	VMULPD logL7<>(SB), Y5, Y6
	VADDPD logL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4                // t1 = s2*(L1+s4*(L3+s4*(L5+s4*L7)))
	VMULPD logL6<>(SB), Y5, Y6
	VADDPD logL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5                // t2 = s4*(L2+s4*(L4+s4*L6))
	VADDPD Y5, Y4, Y4                // R = t1 + t2
	VMULPD logHalf<>(SB), Y2, Y0
	VMULPD Y2, Y0, Y0                // hfsq = 0.5*f*f
	VADDPD Y0, Y4, Y4                // hfsq + R
	VMULPD Y4, Y3, Y3                // s*(hfsq+R)
	VMULPD logLn2Lo<>(SB), Y1, Y4    // k*Ln2Lo
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y0, Y0                // hfsq - (s*(hfsq+R) + k*Ln2Lo)
	VSUBPD Y2, Y0, Y0                // ... - f
	VMULPD logLn2Hi<>(SB), Y1, Y1    // k*Ln2Hi
	VSUBPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  logloop
	VMOVMSKPD Y15, AX
	MOVQ AX, special+24(FP)
	VZEROUPPER
	RET

// SJMATVEC: Y0 = 4-lane vector, matrix at mb + AX -> row dots in dst.
// MATVEC4 with three temporaries (Y1..Y3), same operation tree.
#define SJMATVEC(mb, dst) \
	VMULPD  0(mb)(AX*1), Y0, Y1  \
	VMULPD  32(mb)(AX*1), Y0, Y2 \
	VHADDPD Y2, Y1, Y1           \
	VMULPD  64(mb)(AX*1), Y0, Y2 \
	VMULPD  96(mb)(AX*1), Y0, Y3 \
	VHADDPD Y3, Y2, Y2           \
	VPERM2F128 $0x21, Y2, Y1, Y3 \
	VBLENDPD $12, Y2, Y1, Y1     \
	VADDPD  Y1, Y3, dst

// SJPAT: one pattern of the scan join. The x and y lane blocks go
// through matrix pcat[k] of pHalf (R8); the subtree's factor is the
// pattern's pendant product block at BX, computed once per prune;
// t = ((freqs*ax)*ay)*ac holds the four state terms of the pattern.
// Advances the view, product and pcat pointers.
#define SJPAT(t) \
	MOVQ    (R13), AX  \
	ADDQ    $8, R13    \
	SHLQ    $7, AX     \
	VMOVUPD (SI), Y0   \
	ADDQ    R10, SI    \
	SJMATVEC(R8, Y4)   \
	VMULPD  Y4, Y15, Y4 \
	VMOVUPD (DX), Y0   \
	ADDQ    R11, DX    \
	SJMATVEC(R8, Y5)   \
	VMULPD  Y5, Y4, Y4 \
	VMULPD  (BX), Y4, t \
	ADDQ    R12, BX

// func scanJoinAVX2(n int, out, x *float64, xs int, y *float64, ys int, p *float64, ps int, pHalf *[16]float64, pcat *int, freqs *float64, prob float64, w *int, mode int)
//
// One rate-category pass of the insertion-scan join over n patterns, n
// a positive multiple of 4; xs/ys/ps are the pattern strides in bytes of
// the two views and of the pendant products at p. Four patterns' state
// terms are transposed so that the in-order state sum ((t0+t1)+t2)+t3 of
// the scalar reference runs vertically, then out = prob*catL (mode bit 0
// clear) or out + prob*catL (set). Mode bit 1 marks the last pass: clamp
// to SmallestNonzeroFloat64 with NaN passing through, and write 1 to
// lanes whose weight is zero.
TEXT ·scanJoinAVX2(SB), NOSPLIT, $0-112
	MOVQ n+0(FP), CX
	MOVQ out+8(FP), DI
	MOVQ x+16(FP), SI
	MOVQ xs+24(FP), R10
	MOVQ y+32(FP), DX
	MOVQ ys+40(FP), R11
	MOVQ p+48(FP), BX
	MOVQ ps+56(FP), R12
	MOVQ pHalf+64(FP), R8
	MOVQ pcat+72(FP), R13
	MOVQ freqs+80(FP), AX
	VMOVUPD (AX), Y15
	VBROADCASTSD prob+88(FP), Y14
	VBROADCASTSD tiny<>(SB), Y13
	VBROADCASTSD one<>(SB), Y12
	MOVQ w+96(FP), R9

sjquad:
	SJPAT(Y8)
	SJPAT(Y9)
	SJPAT(Y10)
	SJPAT(Y11)

	// transpose: Y8..Y11 = state s of the four patterns
	VUNPCKLPD  Y9, Y8, Y0
	VUNPCKHPD  Y9, Y8, Y1
	VUNPCKLPD  Y11, Y10, Y2
	VUNPCKHPD  Y11, Y10, Y3
	VPERM2F128 $0x20, Y2, Y0, Y8
	VPERM2F128 $0x20, Y3, Y1, Y9
	VPERM2F128 $0x31, Y2, Y0, Y10
	VPERM2F128 $0x31, Y3, Y1, Y11
	VADDPD Y9, Y8, Y0
	VADDPD Y10, Y0, Y0
	VADDPD Y11, Y0, Y0
	VMULPD Y14, Y0, Y0

	MOVQ  mode+104(FP), AX
	TESTQ $1, AX
	JEQ   sjfirst
	VADDPD (DI), Y0, Y0

sjfirst:
	TESTQ $2, AX
	JEQ   sjstore
	VMAXPD Y0, Y13, Y0 // a NaN site is the second source: it passes
	VPXOR  Y1, Y1, Y1
	VPCMPEQQ (R9), Y1, Y1
	VBLENDVPD Y1, Y12, Y0, Y0
	ADDQ   $32, R9

sjstore:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  sjquad
	VZEROUPPER
	RET

// The CAT newview kernels: one 4-lane block per pattern, pattern k using
// matrix pcat[k] (128-byte stride) of each inner child's matrix block and
// the lookup-table block (code*npc + pcat[k]) (32-byte stride) of each tip
// child. Row dots go through SJMATVEC — the MATVEC4 operation tree with
// an indexed matrix base. The rescale test is VCMPPD $1 (less-than,
// ordered) against the broadcast threshold plus VMOVMSKPD == 15: all four
// lanes below scaleThreshold, false for any NaN lane — exactly the scalar
// v0 < th && v1 < th && v2 < th && v3 < th — and the x1e256 is applied in
// registers before the single store.

// CATRESCALE: Y4 = the pattern's four lanes, cnt = its scale counter so
// far (a 32-bit register); multiplies and counts when all lanes are small.
#define CATRESCALE(cnt, skip) \
	VCMPPD    $1, Y15, Y4, Y6 \
	VMOVMSKPD Y6, AX          \
	CMPL      AX, $15         \
	JNE       skip            \
	VMULPD    Y13, Y4, Y4     \
	INCL      cnt

// func newviewIICATAVX2(n int, dst, lv, rv *float64, pL, pR *[16]float64, pcat *int, lsc, rsc, dsc *int32)
TEXT ·newviewIICATAVX2(SB), NOSPLIT, $0-80
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ lv+16(FP), SI
	MOVQ rv+24(FP), DX
	MOVQ pL+32(FP), R8
	MOVQ pR+40(FP), R9
	MOVQ pcat+48(FP), R13
	MOVQ lsc+56(FP), R10
	MOVQ rsc+64(FP), R11
	MOVQ dsc+72(FP), R12
	VBROADCASTSD scaleFact<>(SB), Y13
	VBROADCASTSD scaleThresh<>(SB), Y15

iicatloop:
	MOVQ    (R13), AX
	SHLQ    $7, AX
	VMOVUPD (SI), Y0
	SJMATVEC(R8, Y4)
	VMOVUPD (DX), Y0
	SJMATVEC(R9, Y5)
	VMULPD  Y5, Y4, Y4
	MOVL    (R10), BX
	ADDL    (R11), BX
	CATRESCALE(BX, iicatstore)

iicatstore:
	VMOVUPD Y4, (DI)
	MOVL    BX, (R12)
	ADDQ    $8, R13
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	ADDQ    $4, R10
	ADDQ    $4, R11
	ADDQ    $4, R12
	DECQ    CX
	JNZ     iicatloop
	VZEROUPPER
	RET

// func newviewTICATAVX2(n int, dst *float64, codes *msa.State, lut, iv *float64, pm *[16]float64, npc int, pcat *int, isc, dsc *int32)
TEXT ·newviewTICATAVX2(SB), NOSPLIT, $0-80
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ codes+16(FP), R8
	MOVQ lut+24(FP), SI
	MOVQ iv+32(FP), DX
	MOVQ pm+40(FP), R9
	MOVQ npc+48(FP), R11
	MOVQ pcat+56(FP), R13
	MOVQ isc+64(FP), R10
	MOVQ dsc+72(FP), R12
	VBROADCASTSD scaleFact<>(SB), Y13
	VBROADCASTSD scaleThresh<>(SB), Y15

ticatloop:
	// table block offset (code*npc + pc)*32, matrix offset pc*128
	MOVQ    (R13), AX
	MOVBLZX (R8), BX
	IMULQ   R11, BX
	ADDQ    AX, BX
	SHLQ    $5, BX
	SHLQ    $7, AX
	VMOVUPD (DX), Y0
	SJMATVEC(R9, Y4)
	VMULPD  (SI)(BX*1), Y4, Y4
	MOVL    (R10), BX
	CATRESCALE(BX, ticatstore)

ticatstore:
	VMOVUPD Y4, (DI)
	MOVL    BX, (R12)
	ADDQ    $8, R13
	INCQ    R8
	ADDQ    $32, DX
	ADDQ    $32, DI
	ADDQ    $4, R10
	ADDQ    $4, R12
	DECQ    CX
	JNZ     ticatloop
	VZEROUPPER
	RET

// func newviewTTCATAVX2(n int, dst *float64, codesL, codesR *msa.State, lutL, lutR *float64, npc int, pcat *int, dsc *int32)
TEXT ·newviewTTCATAVX2(SB), NOSPLIT, $0-72
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ codesL+16(FP), R8
	MOVQ codesR+24(FP), R9
	MOVQ lutL+32(FP), SI
	MOVQ lutR+40(FP), DX
	MOVQ npc+48(FP), R11
	MOVQ pcat+56(FP), R13
	MOVQ dsc+64(FP), R12
	VBROADCASTSD scaleFact<>(SB), Y13
	VBROADCASTSD scaleThresh<>(SB), Y15

ttcatloop:
	MOVQ    (R13), AX
	MOVBLZX (R8), BX
	IMULQ   R11, BX
	ADDQ    AX, BX
	SHLQ    $5, BX
	MOVBLZX (R9), R10
	IMULQ   R11, R10
	ADDQ    AX, R10
	SHLQ    $5, R10
	VMOVUPD (SI)(BX*1), Y4
	VMULPD  (DX)(R10*1), Y4, Y4
	XORL    BX, BX
	CATRESCALE(BX, ttcatstore)

ttcatstore:
	VMOVUPD Y4, (DI)
	MOVL    BX, (R12)
	ADDQ    $8, R13
	INCQ    R8
	INCQ    R9
	ADDQ    $32, DI
	ADDQ    $4, R12
	DECQ    CX
	JNZ     ttcatloop
	VZEROUPPER
	RET

DATA negZero<>+0(SB)/8, $0x8000000000000000
GLOBL negZero<>(SB), RODATA, $8

// MKZCATDOT: the four patterns' sumtable blocks in Y0..Y3, their factor
// blocks at fb + AX/BX/DX/DI -> dst = the four 4-term dots, lane p the
// (a0+a1)+(a2+a3) sum of pattern p — MATVEC4's reduction tree with a
// different multiplier per row.
#define MKZCATDOT(fb, dst) \
	VMULPD  (fb)(AX*1), Y0, Y4   \
	VMULPD  (fb)(BX*1), Y1, Y5   \
	VHADDPD Y5, Y4, Y4           \
	VMULPD  (fb)(DX*1), Y2, Y5   \
	VMULPD  (fb)(DI*1), Y3, Y6   \
	VHADDPD Y6, Y5, Y5           \
	VPERM2F128 $0x21, Y5, Y4, Y6 \
	VBLENDPD $12, Y5, Y4, Y4     \
	VADDPD  Y4, Y6, dst

// MKZCATSUM: acc (an X register) += the four lanes of Y src, lane 0
// first — the scalar loop's s += term, one pattern after the other.
#define MKZCATSUM(src, xsrc, acc) \
	VADDSD       xsrc, acc, acc \
	VPERMILPD    $1, xsrc, X6   \
	VADDSD       X6, acc, acc   \
	VEXTRACTF128 $1, src, X6    \
	VADDSD       X6, acc, acc   \
	VPERMILPD    $1, X6, X6     \
	VADDSD       X6, acc, acc

// func mkzCoreCATAVX2(n int, tbl *float64, w, pcat *int, wE, w1, w2 *float64, s1, s2 float64) (d1, d2 float64)
//
// The CAT makenewz core over n patterns, n a positive multiple of 4,
// continuing the partial sums s1/s2. Four patterns per pass: the three
// dots of each against the factor blocks of its category, one VDIVPD,
// the Newton terms in all four lanes, then the terms added to the sums
// in pattern order. A lane whose weight is zero or whose site likelihood
// is below SmallestNonzeroFloat64 has its terms replaced by -0.0, which
// added to any sum returns that sum's bits — the scalar `continue`
// without the branch. Weights convert to float64 through the 2^52+2^51
// magic number, exact below 2^51.
TEXT ·mkzCoreCATAVX2(SB), NOSPLIT, $0-88
	MOVQ n+0(FP), CX
	MOVQ tbl+8(FP), SI
	MOVQ w+16(FP), R10
	MOVQ pcat+24(FP), R13
	MOVQ wE+32(FP), R8
	MOVQ w1+40(FP), R9
	MOVQ w2+48(FP), R11
	VMOVSD s1+56(FP), X14
	VMOVSD s2+64(FP), X15
	VBROADCASTSD tiny<>(SB), Y13
	VBROADCASTSD one<>(SB), Y12
	VBROADCASTSD negZero<>(SB), Y11

mkzcatquad:
	// factor block byte offsets: category * 4 floats * 8
	MOVQ 0(R13), AX
	MOVQ 8(R13), BX
	MOVQ 16(R13), DX
	MOVQ 24(R13), DI
	SHLQ $5, AX
	SHLQ $5, BX
	SHLQ $5, DX
	SHLQ $5, DI
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	MKZCATDOT(R8, Y7)  // siteL
	MKZCATDOT(R9, Y8)  // siteD1
	MKZCATDOT(R11, Y9) // siteD2

	// dead lanes: weight == 0, or siteL < SmallestNonzeroFloat64
	VMOVDQU  (R10), Y0
	VPXOR    Y1, Y1, Y1
	VPCMPEQQ Y0, Y1, Y1
	VCMPPD   $1, Y13, Y7, Y2
	VORPD    Y2, Y1, Y10
	// wk as float64
	VPADDQ logMagic<>(SB), Y0, Y0
	VSUBPD logMagic<>(SB), Y0, Y0

	VDIVPD Y7, Y12, Y1   // inv = 1 / siteL
	VMULPD Y1, Y8, Y2    // ratio = siteD1 * inv
	VMULPD Y2, Y0, Y3    // wk * ratio
	VMULPD Y1, Y9, Y4    // siteD2 * inv
	VMULPD Y2, Y2, Y5    // ratio * ratio
	VSUBPD Y5, Y4, Y4    // siteD2*inv - ratio*ratio
	VMULPD Y4, Y0, Y4    // wk * (...)
	VBLENDVPD Y10, Y11, Y3, Y3
	VBLENDVPD Y10, Y11, Y4, Y4
	MKZCATSUM(Y3, X3, X14)
	MKZCATSUM(Y4, X4, X15)

	ADDQ $128, SI
	ADDQ $32, R10
	ADDQ $32, R13
	SUBQ $4, CX
	JNZ  mkzcatquad
	VMOVSD X14, d1+72(FP)
	VMOVSD X15, d2+80(FP)
	VZEROUPPER
	RET

// func mkzSetupAVX2(n, nCat int, dst, a *float64, aStep, aCat int, b *float64, bStep, bCat int, left, right *float64)
//
// The makenewz setup projection over n patterns of nCat categories;
// aStep/bStep are the views' pattern strides and aCat/bCat their category
// strides, all in bytes (a tip has category stride 0). The two bases stay
// in registers: the rows of left in Y8..Y11, of right in Y12..Y15. Per
// block lz = (L0*a0 + L1*a1) + (L2*a2 + L3*a3) with a_s broadcast — lane
// k is the reference's sum over the rows of left — rz is MATVEC4 over the
// rows of right, and the block stored is lz * rz.
TEXT ·mkzSetupAVX2(SB), NOSPLIT, $0-88
	MOVQ n+0(FP), CX
	MOVQ dst+16(FP), DI
	MOVQ a+24(FP), SI
	MOVQ aCat+40(FP), R10
	MOVQ b+48(FP), DX
	MOVQ bCat+64(FP), R11
	MOVQ left+72(FP), AX
	VMOVUPD 0(AX), Y8
	VMOVUPD 32(AX), Y9
	VMOVUPD 64(AX), Y10
	VMOVUPD 96(AX), Y11
	MOVQ right+80(FP), AX
	VMOVUPD 0(AX), Y12
	VMOVUPD 32(AX), Y13
	VMOVUPD 64(AX), Y14
	VMOVUPD 96(AX), Y15

mkzsetpat:
	MOVQ nCat+8(FP), BX
	MOVQ SI, R8
	MOVQ DX, R9

mkzsetcat:
	VBROADCASTSD 0(R8), Y0
	VMULPD  Y8, Y0, Y0
	VBROADCASTSD 8(R8), Y1
	VMULPD  Y9, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VBROADCASTSD 16(R8), Y1
	VMULPD  Y10, Y1, Y1
	VBROADCASTSD 24(R8), Y2
	VMULPD  Y11, Y2, Y2
	VADDPD  Y2, Y1, Y1
	VADDPD  Y1, Y0, Y0           // lz
	VMOVUPD (R9), Y1
	VMULPD  Y12, Y1, Y2
	VMULPD  Y13, Y1, Y3
	VHADDPD Y3, Y2, Y2
	VMULPD  Y14, Y1, Y3
	VMULPD  Y15, Y1, Y4
	VHADDPD Y4, Y3, Y3
	VPERM2F128 $0x21, Y3, Y2, Y4
	VBLENDPD $12, Y3, Y2, Y2
	VADDPD  Y2, Y4, Y1           // rz
	VMULPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ R10, R8
	ADDQ R11, R9
	ADDQ $32, DI
	DECQ BX
	JNZ  mkzsetcat

	ADDQ aStep+32(FP), SI
	ADDQ bStep+56(FP), DX
	DECQ CX
	JNZ  mkzsetpat
	VZEROUPPER
	RET

// func pendantAVX2(n int, out *float64, os int, s *float64, ss int, pm *[16]float64, pcat *int)
//
// The pendant product of an insertion scan: out[k] = pm[pcat[k]] . s[k]
// for n 4-lane blocks (row dots by SJMATVEC), pm[0] throughout when pcat
// is nil — a GAMMA category pass. os/ss are the block strides in bytes.
TEXT ·pendantAVX2(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	MOVQ out+8(FP), DI
	MOVQ os+16(FP), R11
	MOVQ s+24(FP), SI
	MOVQ ss+32(FP), R10
	MOVQ pm+40(FP), R8
	MOVQ pcat+48(FP), R13
	XORL AX, AX

pendloop:
	TESTQ R13, R13
	JEQ   pendmat
	MOVQ  (R13), AX
	ADDQ  $8, R13
	SHLQ  $7, AX

pendmat:
	VMOVUPD (SI), Y0
	SJMATVEC(R8, Y4)
	VMOVUPD Y4, (DI)
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  pendloop
	VZEROUPPER
	RET
