//go:build amd64 && !purego

package likelihood

import (
	"math"

	"raxml/internal/gtr"
	"raxml/internal/msa"
)

// AVX2 kernel bindings. The assembly (kernels_amd64.s) implements the
// kernel table's entries — the CAT and the nCat == 4 GAMMA newview
// shapes, the makenewz setup and core reductions, the insertion-scan
// join, the edge evaluation, the blocked logarithm and the site tail —
// with the same pairwise-associated IEEE operation sequence as the
// scalar references (no FMA contraction; every matrix product a
// broadcast-column product over the engine's column-major matrices), so
// the two paths produce bit-identical CLVs, scale counters, sumtables,
// Newton partials, site likelihoods and logarithms;
// kernels_equiv_test.go enforces that. The transition-matrix block and
// the makenewz eigen factors are the one place with FMA: their
// exponentials run math.Exp's own sequence, fused where math.Exp fuses,
// so they equal gtr.Model.P and ExpEigen bit for bit
// (kernels_pblock_test.go). The wrappers below hoist every
// bound the assembly relies on. Availability is probed once via
// CPUID/XGETBV: the OS must have enabled YMM state and the CPU must
// report AVX2.

var haveAVX2, haveFMA = detectAVX2()

// mathFMA is whether math.Exp runs its FMA sequence here, which the
// exponentials of pBlockAsm and expFactorsAsm must then run too. math
// takes it when the CPU reports AVX and FMA with YMM state enabled
// (haveFMA) and GODEBUG has not switched either off; rather than
// re-derive the second half, ask math.Exp itself at an input where the
// two sequences round differently (expProbe; TestExpBlockMatchesMathExp
// checks both bit patterns against the transcriptions).
var mathFMA = haveFMA && math.Float64bits(math.Exp(math.Float64frombits(expProbe))) == expProbeFMA

const (
	expProbe    = 0xBFEFF484D76AB400 // ≈ -0.9985985
	expProbeFMA = 0x3FD793CA3D5D52FD // the plain sequence ends in ...FC
)

var avx2Kernels = kernelTable{
	name:          "avx2",
	newviewII4:    newviewII4Asm,
	newviewTT4:    newviewTT4Asm,
	newviewTI4:    newviewTI4Asm,
	newviewTTCAT:  newviewTTCATAsm,
	newviewTICAT:  newviewTICATAsm,
	newviewIICAT:  newviewIICATAsm,
	mkzCoreG4:     mkzCoreG4Asm,
	mkzCoreCAT:    mkzCoreCATAsm,
	mkzSetup:      mkzSetupAsm,
	logBlock:      logBlockAsm,
	pendant:       pendantAsm,
	scanJoinCAT:   scanJoinCATAsm,
	scanJoinGamma: scanJoinGammaAsm,
	evaluate:      evaluateAsm,
	siteTail:      siteTailAsm,
	pBlock:        pBlockAsm,
	expFactors:    expFactorsAsm,
}

func avx2Supported() bool { return haveAVX2 }

func avx2KernelTable() *kernelTable {
	if !haveAVX2 {
		return nil
	}
	return &avx2Kernels
}

// detectAVX2 probes for AVX2, and for FMA as math sees it: both need
// the OS to save YMM state and the CPU to report AVX.
func detectAVX2() (avx2, fma bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 { // OS saves/restores XMM and YMM state
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0, ecx1&fmaBit != 0
}

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

// newviewII4AVX2 combines n nCat==4 inner×inner GAMMA patterns: dst,
// lv, rv point at n contiguous 16-float lane blocks, pL and pR at four
// contiguous [16]float64 transition matrices each, and lsc/rsc/dsc at
// the n int32 scale counters.
//
//go:noescape
func newviewII4AVX2(n int, dst, lv, rv *float64, pL, pR *[16]float64, lsc, rsc, dsc *int32)

// newviewTT4AVX2 combines n nCat==4 tip×tip GAMMA patterns: each
// child's 256-float lookup table (16 codes × 16 lanes) is indexed by
// its per-pattern state code.
//
//go:noescape
func newviewTT4AVX2(n int, dst *float64, codesL, codesR *msa.State, lutL, lutR *float64, dsc *int32)

// newviewTI4AVX2 combines n nCat==4 tip×inner GAMMA patterns: the
// inner child's lane blocks at iv go through the four matrices at pm,
// the tip's lookup-table block is an elementwise factor.
//
//go:noescape
func newviewTI4AVX2(n int, dst *float64, codes *msa.State, lut, iv *float64, pm *[16]float64, isc, dsc *int32)

// newviewTTCATAVX2 combines n CAT tip×tip patterns: pattern k's factor
// from each child's lookup table is the 4-lane block at
// (code·npc + pcat[k])·4.
//
//go:noescape
func newviewTTCATAVX2(n int, dst *float64, codesL, codesR *msa.State, lutL, lutR *float64, npc int, pcat *int, dsc *int32)

// newviewTICATAVX2 combines n CAT tip×inner patterns: the inner child's
// 4-lane blocks at iv go through matrix pcat[k] of pm, the tip's table
// block (indexed as in newviewTTCATAVX2) is an elementwise factor.
//
//go:noescape
func newviewTICATAVX2(n int, dst *float64, codes *msa.State, lut, iv *float64, pm *[16]float64, npc int, pcat *int, isc, dsc *int32)

// newviewIICATAVX2 combines n CAT inner×inner patterns: one 4-lane
// block per child and pattern, through matrix pcat[k] of pL and of pR.
//
//go:noescape
func newviewIICATAVX2(n int, dst, lv, rv *float64, pL, pR *[16]float64, pcat *int, lsc, rsc, dsc *int32)

// mkzCoreG4AVX2 reduces the Newton d1/d2 partials of n patterns from
// their 16-float sumtable blocks at tbl, the n pattern weights at w,
// and the 48-float probability-folded factor block at pw.
//
//go:noescape
func mkzCoreG4AVX2(n int, tbl *float64, w *int, pw *float64) (d1, d2 float64)

// mkzCoreCATAVX2 continues the Newton partial sums s1/s2 over n CAT
// patterns, n a positive multiple of 4: 4-float sumtable blocks at tbl,
// weights at w, and pattern k's factor blocks at pcat[k]·4 of wE/w1/w2.
//
//go:noescape
func mkzCoreCATAVX2(n int, tbl *float64, w, pcat *int, wE, w1, w2 *float64, s1, s2 float64) (d1, d2 float64)

// mkzSetupAVX2 projects n patterns of nCat categories into their
// sumtable blocks at dst; the views' pattern and category strides are in
// bytes.
//
//go:noescape
func mkzSetupAVX2(n, nCat int, dst, a *float64, aStep, aCat int, b *float64, bStep, bCat int, left, right *float64)

func newviewII4Asm(dst, lv, rv []float64, pL, pR [][16]float64, lsc, rsc, dsc []int32) {
	n := len(dsc)
	if n == 0 {
		return
	}
	// Hoist every bound the assembly relies on: 16 floats per pattern in
	// each lane buffer, 4 matrices per child, n counters per scale slice.
	_ = dst[n*16-1]
	_ = lv[n*16-1]
	_ = rv[n*16-1]
	_, _ = pL[3], pR[3]
	_, _ = lsc[n-1], rsc[n-1]
	newviewII4AVX2(n, &dst[0], &lv[0], &rv[0], &pL[0], &pR[0], &lsc[0], &rsc[0], &dsc[0])
}

func newviewTT4Asm(dst []float64, codesL, codesR []msa.State, lutL, lutR []float64, dsc []int32) {
	n := len(dsc)
	if n == 0 {
		return
	}
	_ = dst[n*16-1]
	_, _ = codesL[n-1], codesR[n-1]
	_, _ = lutL[255], lutR[255] // 16 codes x 16 lanes per table
	newviewTT4AVX2(n, &dst[0], &codesL[0], &codesR[0], &lutL[0], &lutR[0], &dsc[0])
}

func newviewTI4Asm(dst []float64, codes []msa.State, lut, iv []float64, pm [][16]float64, isc, dsc []int32) {
	n := len(dsc)
	if n == 0 {
		return
	}
	_ = dst[n*16-1]
	_ = iv[n*16-1]
	_ = codes[n-1]
	_ = lut[255]
	_ = pm[3]
	_ = isc[n-1]
	newviewTI4AVX2(n, &dst[0], &codes[0], &lut[0], &iv[0], &pm[0], &isc[0], &dsc[0])
}

// The CAT wrappers. The assembly follows pcat[k] into its matrix and
// table blocks unchecked; partState.maxCat bounds every pcat[k]
// (installRates), so checking that block top — the maxCat handed down —
// exists stands in for a scan of the assignment.

func newviewTTCATAsm(dst []float64, codesL, codesR []msa.State, lutL, lutR []float64, pcat []int, top int, dsc []int32) {
	n := len(dsc)
	if n == 0 {
		return
	}
	npc := len(lutL) / 64 // 16 codes x npc categories x 4 lanes per table
	_ = dst[n*4-1]
	_, _, _ = codesL[n-1], codesR[n-1], pcat[n-1]
	_ = lutR[64*npc-1]
	if uint(top) >= uint(npc) {
		panic("likelihood: top category outside the tip lookup tables")
	}
	newviewTTCATAVX2(n, &dst[0], &codesL[0], &codesR[0], &lutL[0], &lutR[0], npc, &pcat[0], &dsc[0])
}

func newviewTICATAsm(dst []float64, codes []msa.State, lut, iv []float64, pm [][16]float64, pcat []int, top int, isc, dsc []int32) {
	n := len(dsc)
	if n == 0 {
		return
	}
	npc := len(pm)
	_, _ = dst[n*4-1], iv[n*4-1]
	_, _, _ = codes[n-1], pcat[n-1], isc[n-1]
	_, _ = pm[top], lut[64*npc-1]
	newviewTICATAVX2(n, &dst[0], &codes[0], &lut[0], &iv[0], &pm[0], npc, &pcat[0], &isc[0], &dsc[0])
}

func newviewIICATAsm(dst, lv, rv []float64, pL, pR [][16]float64, pcat []int, top int, lsc, rsc, dsc []int32) {
	n := len(dsc)
	if n == 0 {
		return
	}
	_, _, _ = dst[n*4-1], lv[n*4-1], rv[n*4-1]
	_, _ = pL[top], pR[top]
	_, _, _ = pcat[n-1], lsc[n-1], rsc[n-1]
	newviewIICATAVX2(n, &dst[0], &lv[0], &rv[0], &pL[0], &pR[0], &pcat[0], &lsc[0], &rsc[0], &dsc[0])
}

func mkzCoreG4Asm(tbl []float64, w []int, pw *[48]float64) (d1, d2 float64) {
	n := len(w)
	if n == 0 {
		return 0, 0
	}
	_ = tbl[n*16-1]
	return mkzCoreG4AVX2(n, &tbl[0], &w[0], &pw[0])
}

// mkzCoreCATAsm runs whole 4-pattern groups through the assembly and the
// 1..3 trailing patterns as one more group, padded with zero-weight
// lanes (which leave the sums alone) and continuing the same sums.
func mkzCoreCATAsm(tbl []float64, w, pcat []int, top int, wE, w1, w2 []float64) (d1, d2 float64) {
	n := len(w)
	if n == 0 {
		return 0, 0
	}
	_, _ = tbl[n*4-1], pcat[n-1]
	_, _, _ = wE[top*4+3], w1[top*4+3], w2[top*4+3]
	n4 := n &^ 3
	if n4 > 0 {
		d1, d2 = mkzCoreCATAVX2(n4, &tbl[0], &w[0], &pcat[0], &wE[0], &w1[0], &w2[0], 0, 0)
	}
	if n4 < n {
		var (
			pt     [16]float64
			pw, pc [4]int
		)
		copy(pt[:], tbl[n4*4:n*4])
		copy(pw[:], w[n4:])
		copy(pc[:], pcat[n4:])
		d1, d2 = mkzCoreCATAVX2(4, &pt[0], &pw[0], &pc[0], &wE[0], &w1[0], &w2[0], d1, d2)
	}
	return d1, d2
}

// mkzSetupAsm hands the assembly the columns of right, whose product
// with each b block it takes as a broadcast-column product.
func mkzSetupAsm(dst, av []float64, as int, bv []float64, bs int, nCat int, left, right *[16]float64) {
	n := len(dst) / (nCat * 4)
	if n == 0 {
		return
	}
	ac, bc := catStep(as), catStep(bs)
	_, _ = av[(n-1)*as+(nCat-1)*ac+3], bv[(n-1)*bs+(nCat-1)*bc+3]
	cols := *right
	transpose4(&cols)
	mkzSetupAVX2(n, nCat, &dst[0], &av[0], as*8, ac*8, &bv[0], bs*8, bc*8, &left[0], &cols[0])
}

// logBlockAVX2 takes the logarithm of n lanes, n a positive multiple
// of 4; lanes that are not positive normal numbers come back garbage
// and make special non-zero.
//
//go:noescape
func logBlockAVX2(n int, dst, src *float64) (special int)

// scanJoinAVX2 is one rate-category pass of the insertion-scan join
// over n patterns, n a positive multiple of 4: out (+)= prob·catL, with
// the pattern strides xs/ys/ps of the views and of the pendant products
// at p in bytes, and pattern k's matrix at pHalf[pcat[k]]. Mode bit 0
// accumulates into out, bit 1 finishes the site (clamp, 1 for
// zero-weight lanes).
//
//go:noescape
func scanJoinAVX2(n int, out, x *float64, xs int, y *float64, ys int, p *float64, ps int, pHalf *[16]float64, pcat *int, freqs *float64, prob float64, w *int, mode int)

// pendantAVX2 writes the four row dots of a matrix with each of n
// 4-lane blocks: block k at s + k·ss through pm[pcat[k]] — or pm[0]
// throughout when pcat is nil — to out + k·os; strides in bytes.
//
//go:noescape
func pendantAVX2(n int, out *float64, os int, s *float64, ss int, pm *[16]float64, pcat *int)

// evaluateAVX2 is one rate-category pass of the edge evaluation over n
// patterns, n a positive multiple of 4: out = (out +) prob·catL, with the
// views' pattern strides as/bs in bytes and pattern k's matrix at
// pm[pcat[k]]. Mode bit 0 accumulates into out, bit 1 clamps the sites.
//
//go:noescape
func evaluateAVX2(n int, out, a *float64, as int, b *float64, bs int, pm *[16]float64, pcat *int, freqs *float64, prob float64, mode int)

// siteTailAVX2 is the site tail over n lanes, n a positive multiple of 4;
// w may be nil.
//
//go:noescape
func siteTailAVX2(n int, logs *float64, sx, sy, ss *int32, w *int, lsf float64)

// The mode bits of a category pass of the scan join and the evaluate
// kernel: accumulate into the output block, and finish its sites.
const (
	passAccumulate = 1 << iota
	passFinish
)

// passMode is the mode of category pass c of nCat: every pass after the
// first accumulates, the last finishes.
func passMode(c, nCat int) int {
	mode := 0
	if c > 0 {
		mode |= passAccumulate
	}
	if c == nCat-1 {
		mode |= passFinish
	}
	return mode
}

// evaluateAsm runs whole 4-pattern groups through the assembly — one
// pass under CAT at probability 1 (an exact multiplication), one pass per
// category under GAMMA — and the 1..3 trailing patterns through the
// scalar reference, which computes each pattern's bits on its own. At
// most logBlockLen patterns per call.
func evaluateAsm(out, av []float64, as int, bv []float64, bs int, pm [][16]float64, pcat []int, top int, freqs *[4]float64, probs []float64) {
	n := len(out)
	n4 := n &^ 3
	if n4 > 0 {
		ac, bc := catStep(as), catStep(bs)
		if pcat != nil { // CAT: one category per pattern
			_, _ = av[(n4-1)*as+3], bv[(n4-1)*bs+3]
			_, _ = pcat[n4-1], pm[top]
			evaluateAVX2(n4, &out[0], &av[0], as*8, &bv[0], bs*8, &pm[0], &pcat[0], &freqs[0], 1, passFinish)
		} else {
			nCat := len(probs)
			_, _ = av[(n4-1)*as+(nCat-1)*ac+3], bv[(n4-1)*bs+(nCat-1)*bc+3]
			_, _ = pm[nCat-1], zeroCats[n4-1]
			for c, pr := range probs {
				evaluateAVX2(n4, &out[0], &av[c*ac], as*8, &bv[c*bc], bs*8, &pm[c], &zeroCats[0], &freqs[0], pr, passMode(c, nCat))
			}
		}
	}
	if n4 < n {
		var tail []int
		if pcat != nil {
			tail = pcat[n4:]
		}
		evaluateScalar(out[n4:], av[n4*as:], as, bv[n4*bs:], bs, pm, tail, top, freqs, probs)
	}
}

// siteTailAsm runs whole 4-lane groups through the assembly and the 1..3
// trailing lanes through the scalar reference.
func siteTailAsm(logs []float64, sx, sy, ss []int32, w []int) {
	n := len(logs)
	n4 := n &^ 3
	if n4 > 0 {
		_, _, _ = sx[n4-1], sy[n4-1], ss[n4-1]
		var wp *int
		if w != nil {
			_ = w[n4-1]
			wp = &w[0]
		}
		siteTailAVX2(n4, &logs[0], &sx[0], &sy[0], &ss[0], wp, logScaleFactor)
	}
	if n4 < n {
		var tail []int
		if w != nil {
			tail = w[n4:]
		}
		siteTailScalar(logs[n4:], sx[n4:], sy[n4:], ss[n4:], tail)
	}
}

// logBlockAsm pads the block to whole 4-lane vectors with ones (src is
// scratch; the block arrays always have the room), runs the assembly,
// and redoes any special lane through math.Log — by the same test that
// sends logBlockScalar there.
func logBlockAsm(dst, src *[logBlockLen]float64, n int) {
	if n <= 0 {
		return
	}
	n4 := (n + 3) &^ 3
	for i := n; i < n4; i++ {
		src[i] = 1
	}
	if logBlockAVX2(n4, &dst[0], &src[0]) == 0 {
		return
	}
	const minNormal = 0x1p-1022
	for i, x := range src[:n] {
		if !(x >= minNormal && x <= math.MaxFloat64) {
			dst[i] = math.Log(x)
		}
	}
}

// pendantAsm runs the pendant product as one assembly pass under CAT
// (per-pattern matrices) and one pass per category under GAMMA (each
// over the category's own matrix, view blocks and output blocks).
func pendantAsm(out, sv []float64, ss int, pPend [][16]float64, pcat []int, top int, nCat int) {
	n := len(out) / (nCat * 4)
	if n == 0 {
		return
	}
	sc := catStep(ss)
	_ = sv[(n-1)*ss+(nCat-1)*sc+3]
	if pcat != nil { // CAT: nCat is 1
		_, _ = pcat[n-1], pPend[top]
		pendantAVX2(n, &out[0], 32, &sv[0], ss*8, &pPend[0], &pcat[0])
		return
	}
	_ = pPend[nCat-1]
	for c := 0; c < nCat; c++ {
		pendantAVX2(n, &out[c*4], nCat*32, &sv[c*sc], ss*8, &pPend[c], nil)
	}
}

// scanJoinCATAsm runs whole 4-pattern groups through the assembly in
// one finishing pass at probability 1 (an exact multiplication) and the
// 1..3 trailing patterns through the scalar reference, which computes
// each pattern's bits on its own.
func scanJoinCATAsm(out, xv, yv, pv []float64, pcat []int, top int, pHalf [][16]float64, freqs *[4]float64, w []int) {
	n := len(w)
	n4 := n &^ 3
	if n4 > 0 {
		// Hoist every bound the assembly relies on; pHalf[top] covers the
		// matrix indices, which it follows unchecked.
		_, _, _, _ = out[n4-1], xv[n4*4-1], yv[n4*4-1], pv[n4*4-1]
		_, _ = pcat[n4-1], pHalf[top]
		scanJoinAVX2(n4, &out[0], &xv[0], 32, &yv[0], 32, &pv[0], 32,
			&pHalf[0], &pcat[0], &freqs[0], 1, &w[0], passFinish)
	}
	if n4 < n {
		scanJoinCATScalar(out[n4:], xv[n4*4:], yv[n4*4:], pv[n4*4:], pcat[n4:], top, pHalf, freqs, w[n4:])
	}
}

// zeroCats is the all-zero matrix index vector of a GAMMA pass: every
// pattern uses the pass's own category matrix.
var zeroCats [logBlockLen]int

// scanJoinGammaAsm runs the whole 4-pattern groups of an nCat == 4 join
// through the assembly, one pass per rate category: category c reads
// each view at +c blocks (inner CLV, category step xc/yc = 4 floats) or
// in place (tip, step 0), the pendant products at +c blocks and matrix
// pHalf[c], accumulates probs[c]·catL into out in category order, and the
// last pass finishes the sites. The 1..3 trailing patterns, and every
// pattern of another category count, take the scalar reference. At most
// logBlockLen patterns per call.
func scanJoinGammaAsm(out, xv []float64, xs int, yv []float64, ys int, pv []float64, pHalf [][16]float64, freqs *[4]float64, probs []float64, w []int) {
	n := len(w)
	n4 := n &^ 3
	if len(probs) != 4 {
		n4 = 0
	}
	if n4 > 0 {
		xc, yc := catStep(xs), catStep(ys)
		_, _, _ = out[n4-1], pHalf[3], pv[n4*16-1]
		_, _ = xv[(n4-1)*xs+3*xc+3], yv[(n4-1)*ys+3*yc+3]
		_ = zeroCats[n4-1]
		for c := 0; c < 4; c++ {
			scanJoinAVX2(n4, &out[0], &xv[c*xc], xs*8, &yv[c*yc], ys*8, &pv[c*4], 128,
				&pHalf[c], &zeroCats[0], &freqs[0], probs[c], &w[0], passMode(c, 4))
		}
	}
	if n4 < n {
		scanJoinGammaScalar(out[n4:], xv[n4*xs:], xs, yv[n4*ys:], ys, pv[n4*len(probs)*4:], pHalf, freqs, probs, w[n4:])
	}
}

// pBlockAVX2 fills dst[c] = P(t·rates[c]) for c < n, n ≥ 1, and returns
// how many categories it filled before the first whose exponentials
// leave math.Exp's normal path (n when none does). fma selects
// math.Exp's FMA sequence. eig holds Eval at byte 0, Evec at 32 and Inv
// at 160.
//
//go:noescape
func pBlockAVX2(n int, t float64, rates *float64, dst *[16]float64, eig *gtr.Eigensystem, fma bool) (done int)

// expBlockAVX2 sets dst[i] = exp(src[i]) for i < n, n a positive
// multiple of 4, by math.Exp's sequence (the FMA one when fma is set);
// lanes outside its normal path come back garbage and make special
// non-zero. dst may be src.
//
//go:noescape
func expBlockAVX2(n int, dst, src *float64, fma bool) (special int)

// pBlockAsm runs the categories through the assembly, and each category
// the assembly stops at — an exponential that would underflow to a
// subnormal or zero, overflow, or is not finite — through gtr.Model.P,
// whose math.Exp takes the exit the assembly left out, transposed into
// the column layout the assembly writes.
func pBlockAsm(m *gtr.Model, t float64, rates []float64, dst [][16]float64) {
	n := len(rates)
	if n == 0 {
		return
	}
	_ = dst[n-1]
	eig := m.Eigensystem()
	for c := 0; c < n; c++ {
		c += pBlockAVX2(n-c, t, &rates[c], &dst[c], eig, mathFMA)
		if c < n {
			m.P(t, rates[c], &dst[c])
			transpose4(&dst[c])
		}
	}
}

// expFactorsAsm computes every category's exponents in e0, takes their
// exponentials there in one assembly pass, and derives e1/e2 as
// gtr.Model.ExpEigen does. A lane outside math.Exp's normal path sends
// the whole call to the scalar reference.
func expFactorsAsm(m *gtr.Model, t float64, rates []float64, e0, e1, e2 []float64) {
	n := len(rates) * 4
	if n == 0 {
		return
	}
	_, _, _ = e0[n-1], e1[n-1], e2[n-1]
	eval := &m.Eigensystem().Eval
	for c, r := range rates {
		tt := t * r
		if tt < 0 {
			tt = 0
		}
		x := (*[4]float64)(e0[c*4:])
		for k, l := range eval {
			x[k] = float64(l * tt)
		}
	}
	if expBlockAVX2(n, &e0[0], &e0[0], mathFMA) != 0 {
		expFactorsScalar(m, t, rates, e0, e1, e2)
		return
	}
	for c, r := range rates {
		for k, l := range eval {
			lr := float64(l * r)
			ex := e0[c*4+k]
			e1[c*4+k] = float64(lr * ex)
			e2[c*4+k] = float64(float64(lr*lr) * ex)
		}
	}
}
