//go:build amd64 && !purego

package likelihood

import (
	"math"

	"raxml/internal/msa"
)

// AVX2 kernel bindings. The assembly (kernels_amd64.s) implements the
// kernel table's entries — the CAT and the nCat == 4 GAMMA newview
// shapes, the makenewz setup and core reductions, the insertion-scan
// join and the blocked logarithm — with the same pairwise-associated IEEE
// operation sequence as the scalar references (no FMA contraction), so
// the two paths produce bit-identical CLVs, scale counters, sumtables,
// Newton partials, site likelihoods and logarithms;
// kernels_equiv_test.go enforces that. The wrappers below hoist every
// bound the assembly relies on. Availability is probed once via
// CPUID/XGETBV: the OS must have enabled YMM state and the CPU must
// report AVX2.

var haveAVX2 = detectAVX2()

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
}

func avx2Supported() bool { return haveAVX2 }

func avx2KernelTable() *kernelTable {
	if !haveAVX2 {
		return nil
	}
	return &avx2Kernels
}

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 { // OS saves/restores XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
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

func mkzSetupAsm(dst, av []float64, as int, bv []float64, bs int, nCat int, left, right *[16]float64) {
	n := len(dst) / (nCat * 4)
	if n == 0 {
		return
	}
	ac, bc := catStep(as), catStep(bs)
	_, _ = av[(n-1)*as+(nCat-1)*ac+3], bv[(n-1)*bs+(nCat-1)*bc+3]
	mkzSetupAVX2(n, nCat, &dst[0], &av[0], as*8, ac*8, &bv[0], bs*8, bc*8, &left[0], &right[0])
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

const (
	scanJoinAccumulate = 1 << iota
	scanJoinFinish
)

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

// scanJoinCATAsm runs the block through the assembly in one finishing
// pass at probability 1 (an exact multiplication): whole 4-pattern
// groups in place, the 1..3 trailing patterns as one more group copied
// into scratch and padded with zero-weight lanes, which the pass
// overwrites with 1 and the copy back drops.
func scanJoinCATAsm(out, xv, yv, pv []float64, pcat []int, top int, pHalf [][16]float64, freqs *[4]float64, w []int) {
	n := len(w)
	if n == 0 {
		return
	}
	// Hoist every bound the assembly relies on; pHalf[top] covers the
	// matrix indices, which it follows unchecked.
	_, _, _, _ = out[n-1], xv[n*4-1], yv[n*4-1], pv[n*4-1]
	_, _ = pcat[n-1], pHalf[top]
	n4 := n &^ 3
	if n4 > 0 {
		scanJoinAVX2(n4, &out[0], &xv[0], 32, &yv[0], 32, &pv[0], 32,
			&pHalf[0], &pcat[0], &freqs[0], 1, &w[0], scanJoinFinish)
	}
	if n4 < n {
		var (
			px, py, pp [16]float64
			po         [4]float64
			pc, pw     [4]int
		)
		copy(px[:], xv[n4*4:n*4])
		copy(py[:], yv[n4*4:n*4])
		copy(pp[:], pv[n4*4:n*4])
		copy(pc[:], pcat[n4:n])
		copy(pw[:], w[n4:])
		scanJoinAVX2(4, &po[0], &px[0], 32, &py[0], 32, &pp[0], 32,
			&pHalf[0], &pc[0], &freqs[0], 1, &pw[0], scanJoinFinish)
		copy(out[n4:], po[:n-n4])
	}
}

// zeroCats is the all-zero matrix index vector of a GAMMA pass: every
// pattern uses the pass's own category matrix.
var zeroCats [logBlockLen]int

// scanJoinGammaAsm runs the nCat == 4 join through scanJoinGamma4: whole
// 4-pattern groups in place, the trailing patterns as one padded group
// in scratch (as scanJoinCATAsm). Other category counts take the scalar
// reference. At most logBlockLen patterns per call.
func scanJoinGammaAsm(out, xv []float64, xs int, yv []float64, ys int, pv []float64, pHalf [][16]float64, freqs *[4]float64, probs []float64, w []int) {
	n := len(w)
	if len(probs) != 4 {
		scanJoinGammaScalar(out, xv, xs, yv, ys, pv, pHalf, freqs, probs, w)
		return
	}
	if n == 0 {
		return
	}
	xc, yc := catStep(xs), catStep(ys)
	_, _, _ = out[n-1], pHalf[3], pv[n*16-1]
	_, _ = xv[(n-1)*xs+3*xc+3], yv[(n-1)*ys+3*yc+3]
	_ = zeroCats[n-1]
	n4 := n &^ 3
	if n4 > 0 {
		scanJoinGamma4(n4, out, xv, xs, xc, yv, ys, yc, pv, pHalf, freqs, probs, w)
	}
	if n4 < n {
		var (
			px, py, pp [64]float64
			po         [4]float64
			pw         [4]int
		)
		copy(px[:], xv[n4*xs:])
		copy(py[:], yv[n4*ys:])
		copy(pp[:], pv[n4*16:])
		copy(pw[:], w[n4:])
		scanJoinGamma4(4, po[:], px[:], xs, xc, py[:], ys, yc, pp[:], pHalf, freqs, probs, pw[:])
		copy(out[n4:], po[:n-n4])
	}
}

// scanJoinGamma4 is the nCat == 4 join over the first n patterns of its
// arguments, n a positive multiple of 4, as four assembly passes, one
// per rate category: category c reads each view at +c blocks (inner
// CLV, category step xc/yc = 4 floats) or in place (tip, step 0), the
// pendant products at +c blocks and matrix pHalf[c], accumulates
// probs[c]·catL into out in category order, and the last pass finishes
// the sites. The caller has checked every bound.
func scanJoinGamma4(n int, out, xv []float64, xs, xc int, yv []float64, ys, yc int, pv []float64, pHalf [][16]float64, freqs *[4]float64, probs []float64, w []int) {
	for c := 0; c < 4; c++ {
		mode := 0
		if c > 0 {
			mode |= scanJoinAccumulate
		}
		if c == 3 {
			mode |= scanJoinFinish
		}
		scanJoinAVX2(n, &out[0], &xv[c*xc], xs*8, &yv[c*yc], ys*8, &pv[c*4], 128,
			&pHalf[c], &zeroCats[0], &freqs[0], probs[c], &w[0], mode)
	}
}
