//go:build amd64 && !purego

#include "textflag.h"

// AVX2 implementations of the kernel table's entries (see
// kernels_dispatch.go and docs/kernels.md). All are written to be
// bit-identical to their scalar references. Every transition matrix the
// engine hands a kernel is column-major (P[j*4+s] = P(j|s)), so a product
// P·x is four VBROADCASTSD of x, four VMULPD against the columns and
// three VADDPD, (x0·col0 + x1·col1) + (x2·col2 + x3·col3): lane s is the
// pairwise sum (P[s][0]x0 + P[s][1]x1) + (P[s][2]x2 + P[s][3]x3) the
// scalar references spell out, with no shuffle at all. No FMA
// contraction is used outside the exponentials of pBlock and expFactors
// (which follow math.Exp), so scalar and asm round identically at every
// step. The makenewz core's per-pattern 16-term reductions keep their
// horizontal adds.

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

// COLPROD: dst = P·x for the column-major matrix at moff(mb) and the
// 4-lane vector at xoff(xb): x_j broadcast against column j, summed
// (x0·col0 + x1·col1) + (x2·col2 + x3·col3). t1, t2 are clobbered.
#define COLPROD(xoff, xb, moff, mb, dst, t1, t2) \
	VBROADCASTSD xoff+0(xb), dst   \
	VMULPD       moff+0(mb), dst, dst \
	VBROADCASTSD xoff+8(xb), t1    \
	VMULPD       moff+32(mb), t1, t1 \
	VADDPD       t1, dst, dst      \
	VBROADCASTSD xoff+16(xb), t1   \
	VMULPD       moff+64(mb), t1, t1 \
	VBROADCASTSD xoff+24(xb), t2   \
	VMULPD       moff+96(mb), t2, t2 \
	VADDPD       t2, t1, t1        \
	VADDPD       t1, dst, dst

// The GAMMA newview kernels: GammaCats 4-lane blocks per pattern. The
// rescale decision is the scalar chain's — all 16 lanes below
// scaleThreshold — as a running AND in Y12 of each block's VCMPPD $1
// (less-than, ordered: a NaN lane is never small) against the broadcast
// threshold in Y15; GRESCALE then multiplies the stored block by 1e256
// (Y13) and counts when the mask is full.

// GSMALL folds the lanes of v below the threshold into Y12.
#define GSMALL(v) \
	VCMPPD $1, Y15, v, Y14 \
	VANDPD Y14, Y12, Y12

// GRESCALE: when every lane of the pattern at DI was small, multiply its
// 16 lanes by 1e256 and add one to cnt; tmp is a scratch register.
#define GRESCALE(tmp, cnt, skip) \
	VMOVMSKPD Y12, tmp     \
	CMPL    tmp, $15       \
	JNE     skip           \
	VMULPD  0(DI), Y13, Y0 \
	VMOVUPD Y0, 0(DI)      \
	VMULPD  32(DI), Y13, Y0 \
	VMOVUPD Y0, 32(DI)     \
	VMULPD  64(DI), Y13, Y0 \
	VMOVUPD Y0, 64(DI)     \
	VMULPD  96(DI), Y13, Y0 \
	VMOVUPD Y0, 96(DI)     \
	INCL    cnt

// One GAMMA category of the inner×inner newview: lane block c of the
// left/right child CLVs through matrices c of pL/pR, product stored to
// dst and folded into the rescale mask.
#define NVCAT(c) \
	COLPROD(c*32, SI, c*128, R8, Y9, Y1, Y2)  \
	COLPROD(c*32, DX, c*128, R9, Y10, Y3, Y4) \
	VMULPD  Y10, Y9, Y11     \
	VMOVUPD Y11, (c*32)(DI)  \
	GSMALL(Y11)

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
	VBROADCASTSD scaleThresh<>(SB), Y15

nvloop:
	VPCMPEQQ Y12, Y12, Y12
	NVCAT(0)
	NVCAT(1)
	NVCAT(2)
	NVCAT(3)

	// dsc = lsc + rsc (+1 on rescale)
	MOVL (R10), AX
	ADDL (R11), AX
	GRESCALE(BX, AX, nvstore)

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

// One GAMMA category of the tip×tip newview: lane block c of both
// children's lookup blocks (bases SI + AX and DX + BX), their product
// stored and folded into the rescale mask.
#define TTCAT4(c) \
	VMOVUPD (c*32)(SI)(AX*1), Y0    \
	VMULPD  (c*32)(DX)(BX*1), Y0, Y1 \
	VMOVUPD Y1, (c*32)(DI)          \
	GSMALL(Y1)

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
	VBROADCASTSD scaleThresh<>(SB), Y15

tt4loop:
	// code block offsets: state * 16 lanes * 8 bytes
	MOVBLZX (R8), AX
	SHLQ $7, AX
	MOVBLZX (R9), BX
	SHLQ $7, BX
	VPCMPEQQ Y12, Y12, Y12
	TTCAT4(0)
	TTCAT4(1)
	TTCAT4(2)
	TTCAT4(3)

	XORL R13, R13
	GRESCALE(AX, R13, tt4store)

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
// block (base SI + code offset AX), stored and folded into the rescale
// mask.
#define TICAT(c) \
	COLPROD(c*32, DX, c*128, R9, Y9, Y1, Y2) \
	VMULPD  (c*32)(SI)(AX*1), Y9, Y11 \
	VMOVUPD Y11, (c*32)(DI)         \
	GSMALL(Y11)

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
	VBROADCASTSD scaleThresh<>(SB), Y15

ti4loop:
	MOVBLZX (R8), AX
	SHLQ $7, AX
	VPCMPEQQ Y12, Y12, Y12
	TICAT(0)
	TICAT(1)
	TICAT(2)
	TICAT(3)

	MOVL (R10), BX
	GRESCALE(AX, BX, ti4store)

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
	VMOVSD   tiny<>(SB), X10
	VUCOMISD X14, X10
	JA mkznext       // siteL < SmallestNonzeroFloat64, ordered: dead pattern

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

// SJPAT: one pattern of the scan join. The x and y lane blocks go
// through matrix pcat[k] of pHalf (R8); the subtree's factor is the
// pattern's pendant product block at BX, computed once per prune;
// t = ((freqs*ax)*ay)*ac holds the four state terms of the pattern.
// Advances the view, product and pcat pointers.
#define SJPAT(t) \
	MOVQ    (R13), AX  \
	ADDQ    $8, R13    \
	SHLQ    $7, AX     \
	ADDQ    R8, AX     \
	COLPROD(0, SI, 0, AX, Y4, Y1, Y2) \
	ADDQ    R10, SI    \
	VMULPD  Y4, Y15, Y4 \
	COLPROD(0, DX, 0, AX, Y5, Y1, Y2) \
	ADDQ    R11, DX    \
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

// EVPAT: one pattern of an evaluate pass. The b block goes through
// matrix pcat[k] of pm (R8); t = (freqs*a)*dot holds the four state
// terms, with -0.0 — which leaves any sum's bits alone — in the lanes
// whose a is zero, the reference's skipped states. Advances the view
// and pcat pointers.
#define EVPAT(t) \
	MOVQ    (R13), AX  \
	ADDQ    $8, R13    \
	SHLQ    $7, AX     \
	ADDQ    R8, AX     \
	COLPROD(0, DX, 0, AX, Y4, Y1, Y2) \
	ADDQ    R11, DX    \
	VMOVUPD (SI), Y5   \
	ADDQ    R10, SI    \
	VMULPD  Y5, Y15, Y6 \
	VMULPD  Y4, Y6, Y6 \
	VXORPD  Y7, Y7, Y7 \
	VCMPPD  $0, Y7, Y5, Y7 \
	VBLENDVPD Y7, Y12, Y6, t

// func evaluateAVX2(n int, out, a *float64, as int, b *float64, bs int, pm *[16]float64, pcat *int, freqs *float64, prob float64, mode int)
//
// One rate-category pass of the edge evaluation over n patterns, n a
// positive multiple of 4; as/bs are the views' pattern strides in bytes.
// Four patterns' state terms are transposed so that the in-order state
// sum (((0+t0)+t1)+t2)+t3 of the scalar reference runs vertically, then
// out = 0 + prob*catL (mode bit 0 clear) or out + prob*catL (set). Mode
// bit 1 marks the last pass: clamp to SmallestNonzeroFloat64, NaN passing
// through.
TEXT ·evaluateAVX2(SB), NOSPLIT, $0-88
	MOVQ n+0(FP), CX
	MOVQ out+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ as+24(FP), R10
	MOVQ b+32(FP), DX
	MOVQ bs+40(FP), R11
	MOVQ pm+48(FP), R8
	MOVQ pcat+56(FP), R13
	MOVQ freqs+64(FP), AX
	VMOVUPD (AX), Y15
	VBROADCASTSD prob+72(FP), Y14
	VBROADCASTSD tiny<>(SB), Y13
	VBROADCASTSD negZero<>(SB), Y12
	MOVQ mode+80(FP), R9

evquad:
	EVPAT(Y8)
	EVPAT(Y9)
	EVPAT(Y10)
	EVPAT(Y11)

	// transpose: Y8..Y11 = state s of the four patterns
	VUNPCKLPD  Y9, Y8, Y0
	VUNPCKHPD  Y9, Y8, Y1
	VUNPCKLPD  Y11, Y10, Y2
	VUNPCKHPD  Y11, Y10, Y3
	VPERM2F128 $0x20, Y2, Y0, Y8
	VPERM2F128 $0x20, Y3, Y1, Y9
	VPERM2F128 $0x31, Y2, Y0, Y10
	VPERM2F128 $0x31, Y3, Y1, Y11
	VXORPD Y0, Y0, Y0
	VADDPD Y8, Y0, Y1
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y1, Y1
	VADDPD Y11, Y1, Y1
	VMULPD Y14, Y1, Y1

	TESTQ $1, R9
	JEQ   evfirst
	VMOVUPD (DI), Y0

evfirst:
	VADDPD Y1, Y0, Y0
	TESTQ  $2, R9
	JEQ    evstore
	VMAXPD Y0, Y13, Y0 // a NaN site is the second source: it passes

evstore:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  evquad
	VZEROUPPER
	RET

// func siteTailAVX2(n int, logs *float64, sx, sy, ss *int32, w *int, lsf float64)
//
// The site tail over n lanes, n a positive multiple of 4: logs[i] =
// ((logs[i] - sx[i]*lsf) - sy[i]*lsf) - ss[i]*lsf, then times w[i] when w
// is not nil. Counters convert exactly (VCVTDQ2PD); weights through the
// 2^52+2^51 magic number, exact below 2^51.
TEXT ·siteTailAVX2(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	MOVQ logs+8(FP), DI
	MOVQ sx+16(FP), R8
	MOVQ sy+24(FP), R9
	MOVQ ss+32(FP), R10
	MOVQ w+40(FP), R11
	VBROADCASTSD lsf+48(FP), Y15

tailloop:
	VMOVUPD   (DI), Y0
	VCVTDQ2PD (R8), Y1
	VMULPD    Y15, Y1, Y1
	VSUBPD    Y1, Y0, Y0
	VCVTDQ2PD (R9), Y1
	VMULPD    Y15, Y1, Y1
	VSUBPD    Y1, Y0, Y0
	VCVTDQ2PD (R10), Y1
	VMULPD    Y15, Y1, Y1
	VSUBPD    Y1, Y0, Y0
	TESTQ     R11, R11
	JEQ       tailstore
	VMOVDQU   (R11), Y1
	VPADDQ    logMagic<>(SB), Y1, Y1
	VSUBPD    logMagic<>(SB), Y1, Y1
	VMULPD    Y0, Y1, Y0
	ADDQ      $32, R11

tailstore:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	SUBQ $4, CX
	JNZ  tailloop
	VZEROUPPER
	RET

// The CAT newview kernels: one 4-lane block per pattern, pattern k using
// matrix pcat[k] (128-byte stride) of each inner child's matrix block and
// the lookup-table block (code*npc + pcat[k]) (32-byte stride) of each tip
// child. Products go through COLPROD at the pattern's matrix address. The
// rescale test is VCMPPD $1 (less-than,
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
	LEAQ    (R8)(AX*1), R14
	ADDQ    R9, AX
	COLPROD(0, SI, 0, R14, Y4, Y1, Y2)
	COLPROD(0, DX, 0, AX, Y5, Y1, Y2)
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
	// table block offset (code*npc + pc)*32, matrix at pm + pc*128
	MOVQ    (R13), AX
	MOVBLZX (R8), BX
	IMULQ   R11, BX
	ADDQ    AX, BX
	SHLQ    $5, BX
	SHLQ    $7, AX
	ADDQ    R9, AX
	COLPROD(0, DX, 0, AX, Y4, Y1, Y2)
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
// (a0+a1)+(a2+a3) sum of pattern p: a per-pattern reduction, one row per
// pattern, through horizontal adds.
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
// in registers: the rows of left in Y8..Y11, the columns of right (the
// wrapper transposes it) in Y12..Y15. Per block lz = (L0*a0 + L1*a1) +
// (L2*a2 + L3*a3) with a_s broadcast — lane k is the reference's sum over
// the rows of left — rz is the same broadcast-column product over b, and
// the block stored is lz * rz.
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
	VBROADCASTSD 0(R9), Y1
	VMULPD  Y12, Y1, Y1
	VBROADCASTSD 8(R9), Y2
	VMULPD  Y13, Y2, Y2
	VADDPD  Y2, Y1, Y1
	VBROADCASTSD 16(R9), Y2
	VMULPD  Y14, Y2, Y2
	VBROADCASTSD 24(R9), Y3
	VMULPD  Y15, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VADDPD  Y2, Y1, Y1           // rz
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
// for n 4-lane blocks (by COLPROD), pm[0] throughout when pcat is nil —
// a GAMMA category pass. os/ss are the block strides in bytes.
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
	LEAQ    (R8)(AX*1), R14
	COLPROD(0, SI, 0, R14, Y4, Y1, Y2)
	VMOVUPD Y4, (DI)
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  pendloop
	VZEROUPPER
	RET

// The exponential of the transition-matrix block: math.Exp's amd64
// routine (src/math/exp_amd64.s) four lanes at a time. Its constants,
// written with the same literals, so they assemble to the same bits.
CONST4(expOverflow, 7.09782712893384e+02)
CONST4(expLog2e, 1.4426950408889634073599246810018920)
CONST4(expLn2U, 0.69314718055966295651160180568695068359375)
CONST4(expLn2L, 0.28235290563031577122588448175013436025525412068e-12)
CONST4(expSixteenth, 0.0625)
CONST4(expHalf, 0.5)
CONST4(expOne, 1.0)
CONST4(expTwo, 2.0)
CONST4(expT3, 1.6666666666666666667e-1)
CONST4(expT4, 4.1666666666666666667e-2)
CONST4(expT5, 8.3333333333333333333e-3)
CONST4(expT6, 1.3888888888888888889e-3)
CONST4(expT7, 1.9841269841269841270e-4)
CONST4(expT8, 2.4801587301587301587e-5)

// Four int32 lanes: the exponent bias, and the bounds of a biased
// exponent that math.Exp scales on its normal path, [1, 0x7FE].
DATA expBias<>+0(SB)/4, $0x3FF
DATA expBias<>+4(SB)/4, $0x3FF
DATA expBias<>+8(SB)/4, $0x3FF
DATA expBias<>+12(SB)/4, $0x3FF
GLOBL expBias<>(SB), RODATA, $16
DATA expMinExp<>+0(SB)/4, $1
DATA expMinExp<>+4(SB)/4, $1
DATA expMinExp<>+8(SB)/4, $1
DATA expMinExp<>+12(SB)/4, $1
GLOBL expMinExp<>(SB), RODATA, $16
DATA expMaxExp<>+0(SB)/4, $0x7FE
DATA expMaxExp<>+4(SB)/4, $0x7FE
DATA expMaxExp<>+8(SB)/4, $0x7FE
DATA expMaxExp<>+12(SB)/4, $0x7FE
GLOBL expMaxExp<>(SB), RODATA, $16

// EXPHEAD starts exp(Y0): Y4 = all-ones in the lanes math.Exp sends to
// its overflow or not-finite exits (x > Overflow, NaN, +Inf), X3 = the
// four exponents k = CVTSD2SL(x·log2e) in int32 lanes (the current
// rounding mode, as CVTSD2SL), Y1 = k as float64.
#define EXPHEAD \
	VCMPPD     $6, expOverflow<>(SB), Y0, Y4 \
	VMULPD     expLog2e<>(SB), Y0, Y1        \
	VCVTPD2DQY Y1, X3                        \
	VCVTDQ2PD  X3, Y1

// EXPFMA is math.Exp's avxfma sequence: r = x - k·ln2 in two fused
// steps, r/16, the degree-8 Taylor polynomial by fused Horner steps,
// y = r·poly, three squarings y = (y+2)·y and a last one fused with +1.
// Y0 = the fraction, Y1 and Y2 clobbered.
#define EXPFMA \
	VFNMADD231PD expLn2U<>(SB), Y1, Y0 \
	VFNMADD231PD expLn2L<>(SB), Y1, Y0 \
	VMULPD       expSixteenth<>(SB), Y0, Y0 \
	VMOVUPD      expT8<>(SB), Y1 \
	VFMADD213PD  expT7<>(SB), Y0, Y1 \
	VFMADD213PD  expT6<>(SB), Y0, Y1 \
	VFMADD213PD  expT5<>(SB), Y0, Y1 \
	VFMADD213PD  expT4<>(SB), Y0, Y1 \
	VFMADD213PD  expT3<>(SB), Y0, Y1 \
	VFMADD213PD  expHalf<>(SB), Y0, Y1 \
	VFMADD213PD  expOne<>(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       expTwo<>(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       expTwo<>(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       expTwo<>(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       expTwo<>(SB), Y0, Y1 \
	VFMADD213PD  expOne<>(SB), Y1, Y0

// EXPPLAIN is math.Exp's sequence without FMA: the same steps, every
// product and sum rounded on its own, four squarings, then +1.
#define EXPPLAIN \
	VMULPD expLn2U<>(SB), Y1, Y2 \
	VSUBPD Y2, Y0, Y0 \
	VMULPD expLn2L<>(SB), Y1, Y2 \
	VSUBPD Y2, Y0, Y0 \
	VMULPD expSixteenth<>(SB), Y0, Y0 \
	VMULPD expT8<>(SB), Y0, Y1 \
	VADDPD expT7<>(SB), Y1, Y1 \
	VMULPD Y0, Y1, Y1 \
	VADDPD expT6<>(SB), Y1, Y1 \
	VMULPD Y0, Y1, Y1 \
	VADDPD expT5<>(SB), Y1, Y1 \
	VMULPD Y0, Y1, Y1 \
	VADDPD expT4<>(SB), Y1, Y1 \
	VMULPD Y0, Y1, Y1 \
	VADDPD expT3<>(SB), Y1, Y1 \
	VMULPD Y0, Y1, Y1 \
	VADDPD expHalf<>(SB), Y1, Y1 \
	VMULPD Y0, Y1, Y1 \
	VADDPD expOne<>(SB), Y1, Y1 \
	VMULPD Y1, Y0, Y0 \
	VADDPD expTwo<>(SB), Y0, Y1 \
	VMULPD Y1, Y0, Y0 \
	VADDPD expTwo<>(SB), Y0, Y1 \
	VMULPD Y1, Y0, Y0 \
	VADDPD expTwo<>(SB), Y0, Y1 \
	VMULPD Y1, Y0, Y0 \
	VADDPD expTwo<>(SB), Y0, Y1 \
	VMULPD Y1, Y0, Y0 \
	VADDPD expOne<>(SB), Y0, Y0

// EXPTAIL is math.Exp's ldexp: Y0 ·= 2^k through the biased exponent
// k+0x3FF shifted into place. Lanes whose biased exponent is outside
// [1, 0x7FE] — math.Exp's denormal, underflow and overflow exits — join
// Y4. X3 is the exponent vector of EXPHEAD; X5, X6, Y3 clobbered.
#define EXPTAIL \
	VPADDD    expBias<>(SB), X3, X3 \
	VMOVDQU   expMinExp<>(SB), X6 \
	VPCMPGTD  X3, X6, X6 \
	VPCMPGTD  expMaxExp<>(SB), X3, X5 \
	VPOR      X5, X6, X6 \
	VPMOVSXDQ X6, Y6 \
	VPOR      Y6, Y4, Y4 \
	VPMOVZXDQ X3, Y3 \
	VPSLLQ    $52, Y3, Y3 \
	VMULPD    Y3, Y0, Y0

// func expBlockAVX2(n int, dst, src *float64, fma bool) (special int)
//
// dst[i] = exp(src[i]) for i < n, n a positive multiple of 4, by
// math.Exp's operation sequence — the FMA one when fma is set — four
// lanes at a time. Lanes that leave math.Exp's normal path come back
// garbage and make special non-zero; the Go side redoes them. dst may
// be src.
TEXT ·expBlockAVX2(SB), NOSPLIT, $0-40
	MOVQ    n+0(FP), CX
	MOVQ    dst+8(FP), DI
	MOVQ    src+16(FP), SI
	MOVBLZX fma+24(FP), R9
	VPXOR   Y15, Y15, Y15 // special-lane accumulator

exploop:
	VMOVUPD (SI), Y0
	EXPHEAD
	TESTQ R9, R9
	JEQ   expplain
	EXPFMA
	JMP   exptail

expplain:
	EXPPLAIN

exptail:
	EXPTAIL
	VPOR    Y4, Y15, Y15
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     exploop
	VMOVMSKPD Y15, AX
	MOVQ    AX, special+32(FP)
	VZEROUPPER
	RET

// PROW leaves row i of a transition matrix in acc from the four
// exponentials in Y0: w = evec[i] .* expl, then acc = 0 + bcast(w[0])·inv[0],
// acc += bcast(w[k])·inv[k] for k = 1..3 (inv rows in Y8–Y11, +0 in Y13) —
// gtr.Model.P's association — and lanes with acc < 0 set to +0 by a
// compare and mask, so NaN and -0 pass as they do there.
#define PROW(evoff, acc) \
	VMULPD  evoff(R8), Y0, Y5 \
	VPERMPD $0x00, Y5, Y6     \
	VMULPD  Y8, Y6, Y6        \
	VADDPD  Y6, Y13, acc      \
	VPERMPD $0x55, Y5, Y6     \
	VMULPD  Y9, Y6, Y6        \
	VADDPD  Y6, acc, acc      \
	VPERMPD $0xAA, Y5, Y6     \
	VMULPD  Y10, Y6, Y6       \
	VADDPD  Y6, acc, acc      \
	VPERMPD $0xFF, Y5, Y6     \
	VMULPD  Y11, Y6, Y6       \
	VADDPD  Y6, acc, acc      \
	VCMPPD  $1, Y13, acc, Y6  \
	VANDNPD acc, Y6, acc

// func pBlockAVX2(n int, t float64, rates *float64, dst *[16]float64, eig *gtr.Eigensystem, fma bool) (done int)
//
// dst[c] = P(t·rates[c]) for c < n, n ≥ 1, exactly as gtr.Model.P
// computes it: tt = t·rate with negative values clamped to +0 by a
// compare and mask, x = eval·tt, the four exponentials by math.Exp's
// sequence (EXPHEAD/EXPFMA or EXPPLAIN/EXPTAIL), the rows by PROW,
// transposed in registers and stored as the engine's columns. eig
// holds Eval at 0, Evec at 32 and Inv at 160. Up to eight categories at
// a time, the exponentials go first, into the frame — their dependency
// chains are independent, so the core overlaps them — and the rows
// after. The kernel stops before the first category with an exponential
// outside math.Exp's normal path and returns how many categories it
// filled; the Go side fills that one through gtr.Model.P and resumes.
TEXT ·pBlockAVX2(SB), NOSPLIT, $256-56
	MOVQ    n+0(FP), CX
	VMOVSD  t+8(FP), X14
	MOVQ    rates+16(FP), SI
	MOVQ    dst+24(FP), DI
	MOVQ    eig+32(FP), R8
	MOVBLZX fma+40(FP), R9
	VXORPD  Y13, Y13, Y13
	VMOVUPD 0(R8), Y12
	VMOVUPD 160(R8), Y8
	VMOVUPD 192(R8), Y9
	VMOVUPD 224(R8), Y10
	VMOVUPD 256(R8), Y11
	XORQ    DX, DX // categories done

pbchunk:
	MOVQ CX, BX
	SUBQ DX, BX
	CMPQ BX, $8
	JLE  pbexps
	MOVQ $8, BX // this chunk's categories

pbexps:
	XORQ R10, R10 // category in the chunk
	XORQ R11, R11 // bit j: category j has a special lane
	MOVQ SP, R12  // its exponentials in the frame

pbexp:
	VMOVSD       (SI)(R10*8), X0
	VMULSD       X14, X0, X0   // tt = t·rate
	VCMPSD       $1, X13, X0, X1
	VANDNPD      X0, X1, X0    // tt < 0 → +0
	VBROADCASTSD X0, Y0
	VMULPD       Y12, Y0, Y0   // x = eval·tt
	EXPHEAD
	TESTQ R9, R9
	JEQ   pbplain
	EXPFMA
	JMP   pbtail

pbplain:
	EXPPLAIN

pbtail:
	EXPTAIL
	VMOVUPD   Y0, (R12)
	VMOVMSKPD Y4, AX
	TESTQ     AX, AX
	JEQ       pbnext
	BTSQ      R10, R11

pbnext:
	ADDQ $32, R12
	INCQ R10
	CMPQ R10, BX
	JLT  pbexp
	TESTQ R11, R11
	JEQ   pbrows
	BSFQ  R11, BX // rows only up to the first special category

pbrows:
	TESTQ BX, BX
	JEQ   pbadvance
	MOVQ  SP, R12
	MOVQ  BX, R10

pbrow:
	VMOVUPD (R12), Y0
	PROW(32, Y1)
	PROW(64, Y2)
	PROW(96, Y3)
	PROW(128, Y4)
	// rows Y1..Y4 -> columns: column j = [r0[j] r1[j] r2[j] r3[j]]
	VUNPCKLPD  Y2, Y1, Y5  // r0[0] r1[0] r0[2] r1[2]
	VUNPCKHPD  Y2, Y1, Y6  // r0[1] r1[1] r0[3] r1[3]
	VUNPCKLPD  Y4, Y3, Y7  // r2[0] r3[0] r2[2] r3[2]
	VUNPCKHPD  Y4, Y3, Y15 // r2[1] r3[1] r2[3] r3[3]
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x20, Y15, Y6, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VPERM2F128 $0x31, Y15, Y6, Y4
	VMOVUPD    Y1, 0(DI)
	VMOVUPD    Y2, 32(DI)
	VMOVUPD    Y3, 64(DI)
	VMOVUPD    Y4, 96(DI)
	ADDQ $32, R12
	ADDQ $128, DI
	DECQ R10
	JNZ  pbrow

pbadvance:
	ADDQ  BX, DX
	LEAQ  (SI)(BX*8), SI
	TESTQ R11, R11
	JNE   pbdone
	CMPQ  DX, CX
	JLT   pbchunk

pbdone:
	MOVQ DX, done+48(FP)
	VZEROUPPER
	RET
