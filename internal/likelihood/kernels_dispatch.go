package likelihood

import (
	"fmt"
	"math"

	"raxml/internal/gtr"
	"raxml/internal/msa"
)

// Kernel dispatch. The hot inner loops — the newview shapes of both rate
// treatments (CAT, and GAMMA at nCat == 4), the makenewz setup projection
// and core reductions, the insertion-scan join, the edge evaluation, and
// the blocked logarithm and site tail of the log-space reductions — are
// reached through a per-engine kernel table bound at construction, so an
// AVX2 assembly implementation (kernels_amd64.s, amd64 && !purego builds)
// can replace the scalar reference without a branch inside the pattern
// loop. Every transition matrix an entry reads is column-major (P(j|s)
// at [j*4+s]); pBlock writes them so. The scalar functions are the
// pinned reference: the asm performs the same pairwise-associated IEEE
// operations and the equivalence test holds the two bit-identical.
// docs/kernels.md describes the table and the selection rules.

// KernelMode selects which kernel implementations newly constructed
// engines bind: the platform's best available set (auto), the portable
// scalar reference, or the AVX2 assembly path.
type KernelMode int

const (
	KernelAuto KernelMode = iota
	KernelScalar
	KernelAVX2
)

// kernelTable is one bound implementation set. The GAMMA entries serve
// nCat == 4: newviewII4 combines n inner×inner patterns (dst/lv/rv are
// n·16-float lane blocks, pL/pR four flat matrices per child, lsc/rsc/dsc
// the n scale counters); newviewTT4 combines two tips through their
// 256-float (16 codes × 16 lanes) lookup tables; newviewTI4 combines a
// tip's table block with an inner child pushed through the four matrices
// pm; mkzCoreG4 reduces the Newton d1/d2 partials of n patterns from
// their 16-entry sumtable blocks and the probability-folded exponential
// factor block pw (pw[0:16] = Σ-weights for L, [16:32] for d1, [32:48]
// for d2). The CAT entries work on one 4-lane block per pattern and pick
// pattern k's matrix, table block or factor block by its rate category
// pcat[k], with top the highest index pcat can hold (kernels.go,
// makenewz.go): newviewTTCAT, newviewTICAT, newviewIICAT and mkzCoreCAT.
// mkzSetup is the makenewz setup projection, for any category count.
// logBlock takes the natural logarithm of the first n entries of a
// pattern block (kernels_log.go). scanJoinCAT and scanJoinGamma are the
// three-way CLV join of the lazy-SPR insertion scan (scan.go) over
// len(w) patterns, writing one clamped site likelihood per pattern; the
// subtree enters as its pendant products, which the pendant entry
// computes once per scan; the GAMMA join handles any category count,
// its AVX2 twin taking the nCat == 4 case. evaluate writes the clamped
// site likelihoods across one edge for len(out) patterns (kernels.go,
// evaluateScalar), and siteTail corrects a block of log site likelihoods
// for three views' scale counters and multiplies them by their weights
// (w nil: the site-LL pass, unweighted). pBlock fills one partition's
// category matrices dst[c] = P(t·rates[c]), column-major, and expFactors
// its makenewz eigen factors (gtr.Model.ExpEigen, category c at
// [4c, 4c+4) of e0/e1/e2); their AVX2 twins take the exponentials four
// lanes at a time, bit for bit as math.Exp (kernels_amd64.go).
type kernelTable struct {
	name          string
	newviewII4    func(dst, lv, rv []float64, pL, pR [][16]float64, lsc, rsc, dsc []int32)
	newviewTT4    func(dst []float64, codesL, codesR []msa.State, lutL, lutR []float64, dsc []int32)
	newviewTI4    func(dst []float64, codes []msa.State, lut, iv []float64, pm [][16]float64, isc, dsc []int32)
	newviewTTCAT  func(dst []float64, codesL, codesR []msa.State, lutL, lutR []float64, pcat []int, top int, dsc []int32)
	newviewTICAT  func(dst []float64, codes []msa.State, lut, iv []float64, pm [][16]float64, pcat []int, top int, isc, dsc []int32)
	newviewIICAT  func(dst, lv, rv []float64, pL, pR [][16]float64, pcat []int, top int, lsc, rsc, dsc []int32)
	mkzCoreG4     func(tbl []float64, w []int, pw *[48]float64) (d1, d2 float64)
	mkzCoreCAT    func(tbl []float64, w, pcat []int, top int, wE, w1, w2 []float64) (d1, d2 float64)
	mkzSetup      func(dst, av []float64, as int, bv []float64, bs int, nCat int, left, right *[16]float64)
	logBlock      func(dst, src *[logBlockLen]float64, n int)
	pendant       func(out, sv []float64, ss int, pPend [][16]float64, pcat []int, top int, nCat int)
	scanJoinCAT   func(out, xv, yv, pv []float64, pcat []int, top int, pHalf [][16]float64, freqs *[4]float64, w []int)
	scanJoinGamma func(out, xv []float64, xs int, yv []float64, ys int, pv []float64, pHalf [][16]float64, freqs *[4]float64, probs []float64, w []int)
	evaluate      func(out, av []float64, as int, bv []float64, bs int, pm [][16]float64, pcat []int, top int, freqs *[4]float64, probs []float64)
	siteTail      func(logs []float64, sx, sy, ss []int32, w []int)
	pBlock        func(m *gtr.Model, t float64, rates []float64, dst [][16]float64)
	expFactors    func(m *gtr.Model, t float64, rates []float64, e0, e1, e2 []float64)
}

var scalarKernels = kernelTable{
	name:          "scalar",
	newviewII4:    newviewII4Scalar,
	newviewTT4:    newviewTT4Scalar,
	newviewTI4:    newviewTI4Scalar,
	newviewTTCAT:  newviewTTCATScalar,
	newviewTICAT:  newviewTICATScalar,
	newviewIICAT:  newviewIICATScalar,
	mkzCoreG4:     mkzCoreG4Scalar,
	mkzCoreCAT:    mkzCoreCATScalar,
	mkzSetup:      mkzSetupScalar,
	logBlock:      logBlockScalar,
	pendant:       pendantScalar,
	scanJoinCAT:   scanJoinCATScalar,
	scanJoinGamma: scanJoinGammaScalar,
	evaluate:      evaluateScalar,
	siteTail:      siteTailScalar,
	pBlock:        pBlockScalar,
	expFactors:    expFactorsScalar,
}

// kernelMode is the process-wide selection applied to engines built
// after SetKernelMode; engines capture their table at construction.
var kernelMode = KernelAuto

// SetKernelMode installs the process-wide kernel selection from its CLI
// spelling ("auto", "scalar", "avx2"). Selecting avx2 on hardware (or a
// build) without it is an error; auto silently falls back to scalar.
func SetKernelMode(mode string) error {
	switch mode {
	case "", "auto":
		kernelMode = KernelAuto
	case "scalar":
		kernelMode = KernelScalar
	case "avx2":
		if !avx2Supported() {
			return fmt.Errorf("likelihood: avx2 kernels unavailable (not an amd64 AVX2 machine, or a purego build)")
		}
		kernelMode = KernelAVX2
	default:
		return fmt.Errorf("likelihood: unknown kernel mode %q (want auto, scalar or avx2)", mode)
	}
	return nil
}

func activeKernelTable() *kernelTable {
	switch kernelMode {
	case KernelScalar:
		return &scalarKernels
	case KernelAVX2:
		if t := avx2KernelTable(); t != nil {
			return t
		}
		return &scalarKernels
	default:
		if avx2Supported() {
			if t := avx2KernelTable(); t != nil {
				return t
			}
		}
		return &scalarKernels
	}
}

// pBlockScalar is the reference transition-matrix block: gtr.Model.P
// for each category, transposed into the engine's column layout.
func pBlockScalar(m *gtr.Model, t float64, rates []float64, dst [][16]float64) {
	for c, r := range rates {
		m.P(t, r, &dst[c])
		transpose4(&dst[c])
	}
}

// transpose4 turns a flat row-major 4×4 matrix (gtr.Model.P's
// dst[i*4+j] = P(j|i)) into the engine's column layout
// (dst[j*4+i] = P(j|i)) in place, and back.
func transpose4(p *[16]float64) {
	p[1], p[4] = p[4], p[1]
	p[2], p[8] = p[8], p[2]
	p[3], p[12] = p[12], p[3]
	p[6], p[9] = p[9], p[6]
	p[7], p[13] = p[13], p[7]
	p[11], p[14] = p[14], p[11]
}

// expFactorsScalar is the reference eigen-factor block:
// gtr.Model.ExpEigen for each category.
func expFactorsScalar(m *gtr.Model, t float64, rates []float64, e0, e1, e2 []float64) {
	for c, r := range rates {
		o := c * 4
		m.ExpEigen(t, r, (*[4]float64)(e0[o:o+4]), (*[4]float64)(e1[o:o+4]), (*[4]float64)(e2[o:o+4]))
	}
}

// mkzCoreG4Scalar is the scalar reference of the nCat == 4 GAMMA
// makenewz core loop: per pattern, three 16-term dots against the
// sumtable block and one division feeding the Newton quantities. The
// dots are written out inline (the 16-mul expansion is over the
// compiler's inline budget) as four pairwise category sums combined by
// a pairwise tree — the VHADDPD reduction of the AVX2 path, lane for
// lane, so the two implementations are bit-identical.
func mkzCoreG4Scalar(tbl []float64, w []int, pw *[48]float64) (d1, d2 float64) {
	fE := (*[16]float64)(pw[0:])
	f1 := (*[16]float64)(pw[16:])
	f2 := (*[16]float64)(pw[32:])
	var s1, s2 float64
	for k := 0; k < len(w); k++ {
		wk := w[k]
		if wk == 0 {
			continue
		}
		t := (*[16]float64)(tbl[k*16:])
		t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
		t4, t5, t6, t7 := t[4], t[5], t[6], t[7]
		t8, t9, ta, tb := t[8], t[9], t[10], t[11]
		tc, td, te, tf := t[12], t[13], t[14], t[15]
		siteL := (((fE[0]*t0 + fE[1]*t1) + (fE[2]*t2 + fE[3]*t3)) +
			((fE[4]*t4 + fE[5]*t5) + (fE[6]*t6 + fE[7]*t7))) +
			(((fE[8]*t8 + fE[9]*t9) + (fE[10]*ta + fE[11]*tb)) +
				((fE[12]*tc + fE[13]*td) + (fE[14]*te + fE[15]*tf)))
		if siteL < math.SmallestNonzeroFloat64 {
			continue
		}
		siteD1 := (((f1[0]*t0 + f1[1]*t1) + (f1[2]*t2 + f1[3]*t3)) +
			((f1[4]*t4 + f1[5]*t5) + (f1[6]*t6 + f1[7]*t7))) +
			(((f1[8]*t8 + f1[9]*t9) + (f1[10]*ta + f1[11]*tb)) +
				((f1[12]*tc + f1[13]*td) + (f1[14]*te + f1[15]*tf)))
		siteD2 := (((f2[0]*t0 + f2[1]*t1) + (f2[2]*t2 + f2[3]*t3)) +
			((f2[4]*t4 + f2[5]*t5) + (f2[6]*t6 + f2[7]*t7))) +
			(((f2[8]*t8 + f2[9]*t9) + (f2[10]*ta + f2[11]*tb)) +
				((f2[12]*tc + f2[13]*td) + (f2[14]*te + f2[15]*tf)))
		inv := 1 / siteL
		ratio := siteD1 * inv
		s1 += float64(wk) * ratio
		s2 += float64(wk) * (siteD2*inv - ratio*ratio)
	}
	return s1, s2
}
