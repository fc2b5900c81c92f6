//go:build amd64 && !purego

package likelihood

import (
	"math"

	"raxml/internal/msa"
)

// AVX2 kernel bindings. The assembly (kernels_amd64.s) implements the
// kernel table's entries — the nCat == 4 GAMMA newview shapes, the
// makenewz core reduction, the insertion-scan join and the blocked
// logarithm — with the same pairwise-associated IEEE operation sequence
// as the scalar references (no FMA contraction), so the two paths
// produce bit-identical CLVs, scale counters, Newton partials, site
// likelihoods and logarithms; kernels_equiv_test.go enforces that.
// Availability is probed once via CPUID/XGETBV: the OS must have
// enabled YMM state and the CPU must report AVX2.

var haveAVX2 = detectAVX2()

var avx2Kernels = kernelTable{
	name:          "avx2",
	newviewII4:    newviewII4Asm,
	newviewTT4:    newviewTT4Asm,
	newviewTI4:    newviewTI4Asm,
	mkzCoreG4:     mkzCoreG4Asm,
	logBlock:      logBlockAsm,
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

// mkzCoreG4AVX2 reduces the Newton d1/d2 partials of n patterns from
// their 16-float sumtable blocks at tbl, the n pattern weights at w,
// and the 48-float probability-folded factor block at pw.
//
//go:noescape
func mkzCoreG4AVX2(n int, tbl *float64, w *int, pw *float64) (d1, d2 float64)

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

func mkzCoreG4Asm(tbl []float64, w []int, pw *[48]float64) (d1, d2 float64) {
	n := len(w)
	if n == 0 {
		return 0, 0
	}
	_ = tbl[n*16-1]
	return mkzCoreG4AVX2(n, &tbl[0], &w[0], &pw[0])
}

// logBlockAVX2 takes the logarithm of n lanes, n a positive multiple
// of 4; lanes that are not positive normal numbers come back garbage
// and make special non-zero.
//
//go:noescape
func logBlockAVX2(n int, dst, src *float64) (special int)

// scanJoinAVX2 is one rate-category pass of the insertion-scan join
// over n patterns, n a positive multiple of 4: out (+)= prob·catL, with
// the views' pattern strides xs/ys/ss in bytes and pattern k's matrices
// at pHalf[pcat[k]], pPend[pcat[k]]. Mode bit 0 accumulates into out,
// bit 1 finishes the site (clamp, 1 for zero-weight lanes).
//
//go:noescape
func scanJoinAVX2(n int, out, x *float64, xs int, y *float64, ys int, s *float64, ss int, pHalf, pPend *[16]float64, pcat *int, freqs *float64, prob float64, w *int, mode int)

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

// scanJoinCATAsm runs whole 4-pattern groups through the assembly in
// one finishing pass at probability 1 (an exact multiplication) and
// leaves the 0..3 trailing patterns to the scalar reference, which
// produces the same bits.
func scanJoinCATAsm(out, xv, yv, sv []float64, pcat []int, pHalf, pPend [][16]float64, freqs *[4]float64, w []int) {
	n := len(w)
	n4 := n &^ 3
	if n4 > 0 {
		// Hoist every bound the assembly relies on, the matrix indices
		// included: it indexes pHalf/pPend unchecked.
		_, _, _, _ = out[n4-1], xv[n4*4-1], yv[n4*4-1], sv[n4*4-1]
		top := uint(0)
		for _, c := range pcat[:n4] {
			top = max(top, uint(c)) // a negative index wraps to the top
		}
		_, _ = pHalf[top], pPend[top]
		scanJoinAVX2(n4, &out[0], &xv[0], 32, &yv[0], 32, &sv[0], 32,
			&pHalf[0], &pPend[0], &pcat[0], &freqs[0], 1, &w[0], scanJoinFinish)
	}
	if n4 < n {
		scanJoinCATScalar(out[n4:], xv[n4*4:], yv[n4*4:], sv[n4*4:], pcat[n4:], pHalf, pPend, freqs, w[n4:])
	}
}

// zeroCats is the all-zero matrix index vector of a GAMMA pass: every
// pattern uses the pass's own category matrix.
var zeroCats [logBlockLen]int

// scanJoinGammaAsm runs the nCat == 4 join as four assembly passes, one
// per rate category — category c reads each view at +c blocks (inner
// CLV) or in place (tip) and matrices pHalf[c]/pPend[c], accumulates
// probs[c]·catL into out in category order, and the last pass finishes
// the sites. Other category counts and the trailing patterns take the
// scalar reference. At most logBlockLen patterns per call.
func scanJoinGammaAsm(out, xv []float64, xs int, yv []float64, ys int, sv []float64, ss int, pHalf, pPend [][16]float64, freqs *[4]float64, probs []float64, w []int) {
	n := len(w)
	n4 := n &^ 3
	if len(probs) != 4 {
		n4 = 0
	}
	if n4 > 0 {
		xc, yc, sc := catStep(xs), catStep(ys), catStep(ss)
		_, _, _ = out[n4-1], pHalf[3], pPend[3]
		_, _, _ = xv[(n4-1)*xs+3*xc+3], yv[(n4-1)*ys+3*yc+3], sv[(n4-1)*ss+3*sc+3]
		cats := zeroCats[:n4]
		for c := 0; c < 4; c++ {
			mode := 0
			if c > 0 {
				mode |= scanJoinAccumulate
			}
			if c == 3 {
				mode |= scanJoinFinish
			}
			scanJoinAVX2(n4, &out[0], &xv[c*xc], xs*8, &yv[c*yc], ys*8, &sv[c*sc], ss*8,
				&pHalf[c], &pPend[c], &cats[0], &freqs[0], probs[c], &w[0], mode)
		}
	}
	if n4 < n {
		scanJoinGammaScalar(out[n4:], xv[n4*xs:], xs, yv[n4*ys:], ys, sv[n4*ss:], ss, pHalf, pPend, freqs, probs, w[n4:])
	}
}
