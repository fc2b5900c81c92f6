package likelihood

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"raxml/internal/msa"
	"raxml/internal/rng"
)

// TestKernelEquivalence is the property test pinning every non-scalar
// kernel set to the scalar reference: randomized inputs — wide magnitude
// spread, values parked just above and below scaleThreshold, zero
// pattern weights, all 16 tip codes — go through both implementations
// of each kernel-table entry. The four nCat == 4 GAMMA entries must
// agree to 1e-12 relative with IDENTICAL scale counters; the asm is
// designed bit-identical (same pairwise association, no FMA), so in
// practice the comparison is exact, and the 1e-12 band is the contract
// docs/kernels.md promises for them. Their inputs are finite: the
// rescale decision of the scalar short-circuit chain and the asm VMAXPD
// reduction agree on every finite input but may differ on NaN lanes,
// which no engine path produces. The CAT newview and makenewz entries,
// the setup projection and the scan joins are compared with == on the
// bit patterns, NaN and infinite lanes included.
func TestKernelEquivalence(t *testing.T) {
	alt := make([]*kernelTable, 0, 1)
	if avx2Supported() {
		alt = append(alt, avx2KernelTable())
	}
	if len(alt) == 0 {
		t.Log("no accelerated kernel table on this platform/build; scalar reference runs unchallenged")
	}

	// magnitudes spreads CLV-like inputs across the dynamic range the
	// engine actually visits, weighted toward the interesting edges: a
	// lane product of two ~1e-129 values or one matrix-propagated
	// ~1e-258 value lands within a few decades of scaleThreshold
	// (1e-256), exercising both sides of the rescale branch.
	magnitudes := []float64{1.0, 1e-3, 1e-60, 1e-129, 1e-140, 1e-250, 1e-258, 1e-300}
	randVals := func(r *rng.RNG, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = (0.05 + r.Float64()) * magnitudes[r.Intn(len(magnitudes))]
		}
		return out
	}
	randBlocks := func(r *rng.RNG, n int) []float64 {
		// One shared magnitude per 16-lane pattern block so whole
		// patterns sink below scaleThreshold together — the only way
		// the rescale branch fires with real CLVs.
		out := make([]float64, n*16)
		for k := 0; k < n; k++ {
			m := magnitudes[r.Intn(len(magnitudes))]
			for i := 0; i < 16; i++ {
				out[k*16+i] = (0.05 + r.Float64()) * m
			}
		}
		return out
	}
	randMats := func(r *rng.RNG, n int) [][16]float64 {
		pm := make([][16]float64, n)
		for c := range pm {
			for i := range pm[c] {
				pm[c][i] = r.Float64()
			}
		}
		return pm
	}
	randCodes := func(r *rng.RNG, n int) []msa.State {
		out := make([]msa.State, n)
		for i := range out {
			out[i] = msa.State(r.Intn(16))
		}
		return out
	}
	randScales := func(r *rng.RNG, n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(r.Intn(4))
		}
		return out
	}
	checkClose := func(t *testing.T, name string, trial int, what string, idx int, ref, got float64) {
		t.Helper()
		if ref == got {
			return
		}
		denom := math.Abs(ref)
		if denom < 1 {
			denom = 1
		}
		if math.Abs(ref-got)/denom > 1e-12 {
			t.Fatalf("trial %d: %s[%d]: scalar %g vs %s %g", trial, what, idx, ref, name, got)
		}
	}

	t.Run("newviewII4", func(t *testing.T) {
		r := rng.New(0x11)
		for trial := 0; trial < 300; trial++ {
			n := 1 + r.Intn(48)
			lv, rv := randBlocks(r, n), randBlocks(r, n)
			pL, pR := randMats(r, 4), randMats(r, 4)
			lsc, rsc := randScales(r, n), randScales(r, n)
			ref := make([]float64, n*16)
			refSC := make([]int32, n)
			scalarKernels.newviewII4(ref, lv, rv, pL, pR, lsc, rsc, refSC)
			for _, kt := range alt {
				got := make([]float64, n*16)
				gotSC := make([]int32, n)
				kt.newviewII4(got, lv, rv, pL, pR, lsc, rsc, gotSC)
				for k := 0; k < n; k++ {
					if refSC[k] != gotSC[k] {
						t.Fatalf("trial %d: pattern %d scale count: scalar %d vs %s %d", trial, k, refSC[k], kt.name, gotSC[k])
					}
				}
				for i := range ref {
					checkClose(t, kt.name, trial, "clv", i, ref[i], got[i])
				}
			}
		}
	})

	t.Run("newviewTT4", func(t *testing.T) {
		r := rng.New(0x22)
		for trial := 0; trial < 300; trial++ {
			n := 1 + r.Intn(48)
			lutL, lutR := randVals(r, 256), randVals(r, 256)
			codesL, codesR := randCodes(r, n), randCodes(r, n)
			ref := make([]float64, n*16)
			refSC := make([]int32, n)
			scalarKernels.newviewTT4(ref, codesL, codesR, lutL, lutR, refSC)
			for _, kt := range alt {
				got := make([]float64, n*16)
				gotSC := make([]int32, n)
				kt.newviewTT4(got, codesL, codesR, lutL, lutR, gotSC)
				for k := 0; k < n; k++ {
					if refSC[k] != gotSC[k] {
						t.Fatalf("trial %d: pattern %d scale count: scalar %d vs %s %d", trial, k, refSC[k], kt.name, gotSC[k])
					}
				}
				for i := range ref {
					checkClose(t, kt.name, trial, "clv", i, ref[i], got[i])
				}
			}
		}
	})

	t.Run("newviewTI4", func(t *testing.T) {
		r := rng.New(0x33)
		for trial := 0; trial < 300; trial++ {
			n := 1 + r.Intn(48)
			lut := randVals(r, 256)
			iv := randBlocks(r, n)
			pm := randMats(r, 4)
			codes := randCodes(r, n)
			isc := randScales(r, n)
			ref := make([]float64, n*16)
			refSC := make([]int32, n)
			scalarKernels.newviewTI4(ref, codes, lut, iv, pm, isc, refSC)
			for _, kt := range alt {
				got := make([]float64, n*16)
				gotSC := make([]int32, n)
				kt.newviewTI4(got, codes, lut, iv, pm, isc, gotSC)
				for k := 0; k < n; k++ {
					if refSC[k] != gotSC[k] {
						t.Fatalf("trial %d: pattern %d scale count: scalar %d vs %s %d", trial, k, refSC[k], kt.name, gotSC[k])
					}
				}
				for i := range ref {
					checkClose(t, kt.name, trial, "clv", i, ref[i], got[i])
				}
			}
		}
	})

	t.Run("mkzCoreG4", func(t *testing.T) {
		r := rng.New(0x44)
		for trial := 0; trial < 300; trial++ {
			n := 1 + r.Intn(48)
			tbl := randBlocks(r, n)
			w := make([]int, n)
			for i := range w {
				// Zero weights (invariant-site columns folded elsewhere,
				// rank stripes padding their tail) must be skipped by
				// both paths without touching the sums.
				if r.Intn(4) == 0 {
					w[i] = 0
				} else {
					w[i] = 1 + r.Intn(50)
				}
			}
			var pw [48]float64
			for i := range pw {
				pw[i] = (0.05 + r.Float64()) * magnitudes[r.Intn(3)]
			}
			refD1, refD2 := scalarKernels.mkzCoreG4(tbl, w, &pw)
			for _, kt := range alt {
				gotD1, gotD2 := kt.mkzCoreG4(tbl, w, &pw)
				checkClose(t, kt.name, trial, "d1", 0, refD1, gotD1)
				checkClose(t, kt.name, trial, "d2", 0, refD2, gotD2)
			}
		}
	})

	// The CAT entries. Every comparison is on math.Float64bits (two NaNs
	// count as equal: which payload survives an operation on two
	// different NaNs follows the operand order the compiler picked, not
	// the arithmetic) and on the scale counters, over every block width
	// and pattern count the shapes distinguish, with every input slice
	// starting at an odd float offset of its backing array.
	catNs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 201}
	catNpcs := []int{1, 2, 7, 25}
	sameBits := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	checkBits := func(t *testing.T, name, what string, n, npc int, ref, got []float64) {
		t.Helper()
		for i := range ref {
			if !sameBits(ref[i], got[i]) {
				t.Fatalf("n=%d npc=%d: %s[%d]: scalar %x vs %s %x", n, npc, what, i,
					math.Float64bits(ref[i]), name, math.Float64bits(got[i]))
			}
		}
	}
	checkCounters := func(t *testing.T, name string, n, npc int, ref, got []int32) {
		t.Helper()
		for k := range ref {
			if ref[k] != got[k] {
				t.Fatalf("n=%d npc=%d: pattern %d scale count: scalar %d vs %s %d", n, npc, k, ref[k], name, got[k])
			}
		}
	}
	// odd returns a copy of v starting 1..3 floats into its backing array.
	odd := func(r *rng.RNG, v []float64) []float64 {
		off := 1 + r.Intn(3)
		b := make([]float64, off+len(v))
		copy(b[off:], v)
		return b[off:]
	}
	// catBlocksClean draws n 4-lane pattern blocks (or the 16·npc blocks
	// of a tip lookup table), one magnitude per block so whole patterns
	// land on either side of the rescale; catBlocks also poisons about
	// one lane in forty with a NaN or an infinity.
	catBlocksClean := func(r *rng.RNG, n int) []float64 {
		out := make([]float64, n*4)
		for k := 0; k < n; k++ {
			m := magnitudes[r.Intn(len(magnitudes))]
			for i := 0; i < 4; i++ {
				out[k*4+i] = (0.05 + r.Float64()) * m
			}
		}
		return odd(r, out)
	}
	catBlocks := func(r *rng.RNG, n int) []float64 {
		out := catBlocksClean(r, n)
		for i := range out {
			switch r.Intn(80) {
			case 0:
				out[i] = math.NaN()
			case 1:
				out[i] = math.Inf(1)
			}
		}
		return out
	}
	// catAssign draws n category indices below npc and returns them with
	// the highest one drawn.
	catAssign := func(r *rng.RNG, n, npc int) (pcat []int, top int) {
		pcat = make([]int, n)
		for i := range pcat {
			pcat[i] = r.Intn(npc)
			top = max(top, pcat[i])
		}
		return pcat, top
	}
	// allCodes draws n tip codes, the first sixteen covering every code.
	allCodes := func(r *rng.RNG, n int) []msa.State {
		out := randCodes(r, n)
		for i := 0; i < min(n, 16); i++ {
			out[i] = msa.State(i)
		}
		return out
	}
	forCATShapes := func(seed int64, f func(r *rng.RNG, n, npc int)) {
		r := rng.New(seed)
		for _, npc := range catNpcs {
			for _, n := range catNs {
				for rep := 0; rep < 3; rep++ {
					f(r, n, npc)
				}
			}
		}
	}

	t.Run("newviewTTCAT", func(t *testing.T) {
		forCATShapes(0x91, func(r *rng.RNG, n, npc int) {
			lutL, lutR := catBlocks(r, 16*npc), catBlocks(r, 16*npc)
			codesL, codesR := allCodes(r, n), allCodes(r, n)
			pcat, top := catAssign(r, n, npc)
			ref, refSC := make([]float64, n*4), make([]int32, n)
			scalarKernels.newviewTTCAT(ref, codesL, codesR, lutL, lutR, pcat, top, refSC)
			for _, kt := range alt {
				got, gotSC := odd(r, make([]float64, n*4)), make([]int32, n)
				kt.newviewTTCAT(got, codesL, codesR, lutL, lutR, pcat, top, gotSC)
				checkCounters(t, kt.name, n, npc, refSC, gotSC)
				checkBits(t, kt.name, "clv", n, npc, ref, got)
			}
		})
	})

	t.Run("newviewTICAT", func(t *testing.T) {
		forCATShapes(0x92, func(r *rng.RNG, n, npc int) {
			lut, iv, pm := catBlocks(r, 16*npc), catBlocks(r, n), randMats(r, npc)
			codes, isc := allCodes(r, n), randScales(r, n)
			pcat, top := catAssign(r, n, npc)
			ref, refSC := make([]float64, n*4), make([]int32, n)
			scalarKernels.newviewTICAT(ref, codes, lut, iv, pm, pcat, top, isc, refSC)
			for _, kt := range alt {
				got, gotSC := odd(r, make([]float64, n*4)), make([]int32, n)
				kt.newviewTICAT(got, codes, lut, iv, pm, pcat, top, isc, gotSC)
				checkCounters(t, kt.name, n, npc, refSC, gotSC)
				checkBits(t, kt.name, "clv", n, npc, ref, got)
			}
		})
	})

	t.Run("newviewIICAT", func(t *testing.T) {
		forCATShapes(0x93, func(r *rng.RNG, n, npc int) {
			lv, rv := catBlocks(r, n), catBlocks(r, n)
			pL, pR := randMats(r, npc), randMats(r, npc)
			lsc, rsc := randScales(r, n), randScales(r, n)
			pcat, top := catAssign(r, n, npc)
			ref, refSC := make([]float64, n*4), make([]int32, n)
			scalarKernels.newviewIICAT(ref, lv, rv, pL, pR, pcat, top, lsc, rsc, refSC)
			for _, kt := range alt {
				got, gotSC := odd(r, make([]float64, n*4)), make([]int32, n)
				kt.newviewIICAT(got, lv, rv, pL, pR, pcat, top, lsc, rsc, gotSC)
				checkCounters(t, kt.name, n, npc, refSC, gotSC)
				checkBits(t, kt.name, "clv", n, npc, ref, got)
			}
		})
	})

	t.Run("mkzCoreCAT", func(t *testing.T) {
		trial := 0
		forCATShapes(0x94, func(r *rng.RNG, n, npc int) {
			trial++
			// The sums run through the whole call, so a poisoned lane
			// would mask everything after it: one trial in four has them.
			tbl := catBlocksClean(r, n)
			if trial%4 == 0 {
				tbl = catBlocks(r, n)
			}
			pcat, top := catAssign(r, n, npc)
			w := make([]int, n)
			for i := range w {
				switch r.Intn(6) {
				case 0, 1: // bootstrap replicates zero about a third
				case 2:
					w[i] = 1 + r.Intn(1<<20)<<20 // far beyond any int32
				default:
					w[i] = 1 + r.Intn(50)
				}
			}
			factors := func(lo float64) []float64 {
				f := make([]float64, npc*4)
				for i := range f {
					f[i] = lo + r.Float64()
				}
				return odd(r, f)
			}
			wE, w1, w2 := factors(0.05), factors(-0.5), factors(-0.5)
			// A dead site likelihood (an all-zero sumtable block under a
			// live weight) in every position of a 4-pattern group.
			for pos := 0; pos < 4; pos++ {
				for k := pos; k < n; k += 8 {
					copy(tbl[k*4:k*4+4], []float64{0, 0, 0, 0})
					w[k] = 1 + r.Intn(50)
				}
				refD1, refD2 := scalarKernels.mkzCoreCAT(tbl, w, pcat, top, wE, w1, w2)
				for _, kt := range alt {
					gotD1, gotD2 := kt.mkzCoreCAT(tbl, w, pcat, top, wE, w1, w2)
					checkBits(t, kt.name, "d1,d2", n, npc, []float64{refD1, refD2}, []float64{gotD1, gotD2})
				}
			}
		})
	})

	t.Run("mkzSetup", func(t *testing.T) {
		r := rng.New(0x95)
		for _, nCat := range []int{1, 2, 4, 5} {
			for _, n := range catNs {
				for rep := 0; rep < 4; rep++ {
					// rep picks the views' kinds: inner x inner, tip x inner,
					// inner x tip, tip x tip.
					view := func(tip bool) ([]float64, int) {
						if tip {
							return catBlocks(r, n), 4
						}
						return catBlocks(r, n*nCat), nCat * 4
					}
					av, as := view(rep&1 != 0)
					bv, bs := view(rep&2 != 0)
					var left, right [16]float64
					for i := range left {
						left[i], right[i] = 2*r.Float64()-1, 2*r.Float64()-1
					}
					ref := make([]float64, n*nCat*4)
					scalarKernels.mkzSetup(ref, av, as, bv, bs, nCat, &left, &right)
					for _, kt := range alt {
						got := odd(r, make([]float64, n*nCat*4))
						kt.mkzSetup(got, av, as, bv, bs, nCat, &left, &right)
						checkBits(t, kt.name, "sumtable", n, nCat, ref, got)
					}
				}
			}
		}
	})

	// scanViews draws the three views of an insertion scan over n
	// patterns of nCat categories: each is a tip (4 floats per pattern,
	// 0/1 lanes) or an inner CLV (nCat*4 floats per pattern).
	type scanView struct {
		vec    []float64
		stride int
	}
	randScanView := func(r *rng.RNG, n, nCat int) scanView {
		if r.Intn(3) == 0 {
			vec := make([]float64, n*4)
			for k := 0; k < n; k++ {
				code := 1 + r.Intn(15)
				for s := 0; s < 4; s++ {
					if code&(1<<uint(s)) != 0 {
						vec[k*4+s] = 1
					}
				}
			}
			return scanView{vec, 4}
		}
		vec := make([]float64, n*nCat*4)
		for k := 0; k < n; k++ {
			m := magnitudes[r.Intn(len(magnitudes))]
			for i := 0; i < nCat*4; i++ {
				vec[k*nCat*4+i] = (0.05 + r.Float64()) * m
			}
		}
		return scanView{vec, nCat * 4}
	}
	randWeights := func(r *rng.RNG, n int) []int {
		w := make([]int, n)
		for i := range w {
			// Bootstrap replicates zero about a third of the weights.
			if r.Intn(3) != 0 {
				w[i] = 1 + r.Intn(50)
			}
		}
		return w
	}
	randFreqs := func(r *rng.RNG) *[4]float64 {
		f := &[4]float64{}
		for i := range f {
			f[i] = 0.1 + r.Float64()
		}
		return f
	}
	// The scan-join outputs feed a logarithm whose bits the search
	// compares, so these two entries are held to exact equality.
	checkSites := func(t *testing.T, name string, trial int, ref, got []float64) {
		t.Helper()
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
				t.Fatalf("trial %d: site[%d]: scalar %x vs %s %x", trial, i,
					math.Float64bits(ref[i]), name, math.Float64bits(got[i]))
			}
		}
	}

	t.Run("pendant", func(t *testing.T) {
		// CAT: one category per pattern, per-pattern matrices.
		forCATShapes(0x96, func(r *rng.RNG, n, npc int) {
			sv, pPend := catBlocks(r, n), randMats(r, npc)
			pcat, top := catAssign(r, n, npc)
			ref := make([]float64, n*4)
			scalarKernels.pendant(ref, sv, 4, pPend, pcat, top, 1)
			for _, kt := range alt {
				got := odd(r, make([]float64, n*4))
				kt.pendant(got, sv, 4, pPend, pcat, top, 1)
				checkBits(t, kt.name, "product", n, npc, ref, got)
			}
		})
		// GAMMA: a tip subtree (one block serves every category) and an
		// inner one, at the search's four categories and at others.
		r := rng.New(0x97)
		for _, nCat := range []int{1, 3, 4, 6} {
			for _, n := range catNs {
				for _, tip := range []bool{false, true} {
					sv, ss := catBlocks(r, n*nCat), nCat*4
					if tip {
						sv, ss = catBlocks(r, n), 4
					}
					pPend := randMats(r, nCat)
					ref := make([]float64, n*nCat*4)
					scalarKernels.pendant(ref, sv, ss, pPend, nil, 0, nCat)
					for _, kt := range alt {
						got := odd(r, make([]float64, n*nCat*4))
						kt.pendant(got, sv, ss, pPend, nil, 0, nCat)
						checkBits(t, kt.name, "product", n, nCat, ref, got)
					}
				}
			}
		}
	})

	// The subtree enters both joins as its pendant products — one inner-
	// shaped block per pattern and category, whatever the subtree is.
	t.Run("scanJoinCAT", func(t *testing.T) {
		r := rng.New(0x66)
		for trial := 0; trial < 300; trial++ {
			n := 1 + r.Intn(logBlockLen)
			nc := 1 + r.Intn(25)
			x, y, pv := randScanView(r, n, 1), randScanView(r, n, 1), catBlocksClean(r, n)
			pHalf := randMats(r, nc)
			pcat, top := catAssign(r, n, nc)
			w, freqs := randWeights(r, n), randFreqs(r)
			ref := make([]float64, n)
			scalarKernels.scanJoinCAT(ref, x.vec, y.vec, pv, pcat, top, pHalf, freqs, w)
			for i, wk := range w {
				if wk == 0 && ref[i] != 1 {
					t.Fatalf("trial %d: zero-weight site[%d] = %g, want 1", trial, i, ref[i])
				}
			}
			for _, kt := range alt {
				got := make([]float64, n)
				kt.scanJoinCAT(got, x.vec, y.vec, pv, pcat, top, pHalf, freqs, w)
				checkSites(t, kt.name, trial, ref, got)
			}
		}
	})

	t.Run("scanJoinGamma", func(t *testing.T) {
		r := rng.New(0x77)
		for trial := 0; trial < 300; trial++ {
			n := 1 + r.Intn(logBlockLen)
			nCat := 4
			if trial%10 == 9 {
				nCat = 1 + r.Intn(6) // the generic category counts
			}
			x, y, pv := randScanView(r, n, nCat), randScanView(r, n, nCat), catBlocksClean(r, n*nCat)
			pHalf := randMats(r, nCat)
			probs := make([]float64, nCat)
			for c := range probs {
				probs[c] = 1 / float64(nCat)
			}
			w, freqs := randWeights(r, n), randFreqs(r)
			ref := make([]float64, n)
			scalarKernels.scanJoinGamma(ref, x.vec, x.stride, y.vec, y.stride, pv, pHalf, freqs, probs, w)
			for _, kt := range alt {
				got := make([]float64, n)
				kt.scanJoinGamma(got, x.vec, x.stride, y.vec, y.stride, pv, pHalf, freqs, probs, w)
				checkSites(t, kt.name, trial, ref, got)
			}
		}
	})
}

// TestScanJoinClampAndNaN pins the edges of the scan-join output
// contract on every kernel set: an all-zero pattern (a likelihood that
// underflowed entirely) clamps to SmallestNonzeroFloat64, a NaN lane
// stays NaN as under math.Max, and zero-weight patterns read 1. The
// subtree's factor is the pre-multiplied pendant form; the edge cases
// arrive through the x view, and once more through the products.
func TestScanJoinClampAndNaN(t *testing.T) {
	tables := []*kernelTable{&scalarKernels}
	if avx2Supported() {
		tables = append(tables, avx2KernelTable())
	}
	// edgeCases builds a view of 8 patterns, `lanes` floats each, all
	// 0.25 except patterns 1 and 5 (dead likelihood) and 2 and 6
	// (poisoned): a 7-pattern call has 5 and 6 in the padded tail group.
	edgeCases := func(lanes int) (x, one []float64) {
		one = make([]float64, 8*lanes)
		for i := range one {
			one[i] = 0.25
		}
		x = append([]float64(nil), one...)
		for i := 0; i < lanes; i++ {
			x[1*lanes+i], x[5*lanes+i] = 0, 0
			x[2*lanes+i], x[6*lanes+i] = math.NaN(), math.NaN()
		}
		return x, one
	}
	pm := make([][16]float64, 4)
	for c := range pm {
		for i := range pm[c] {
			pm[c][i] = 0.25
		}
	}
	freqs := &[4]float64{0.25, 0.25, 0.25, 0.25}
	probs := []float64{0.25, 0.25, 0.25, 0.25}
	weights := []int{1, 1, 1, 0, 1, 1, 1, 1}
	pcat := make([]int, 8)
	for _, kt := range tables {
		for _, gamma := range []bool{false, true} {
			for _, viaProducts := range []bool{false, true} {
				for _, n := range []int{8, 7} {
					lanes := 4
					if gamma {
						lanes = 16
					}
					x, one := edgeCases(lanes)
					pv := one
					if viaProducts {
						x, pv = one, x
					}
					out, w := make([]float64, n), weights[:n]
					if gamma {
						kt.scanJoinGamma(out, x[:n*16], 16, one[:n*16], 16, pv[:n*16], pm, freqs, probs, w)
					} else {
						kt.scanJoinCAT(out, x[:n*4], one[:n*4], pv[:n*4], pcat[:n], 0, pm, freqs, w)
					}
					name := fmt.Sprintf("%s gamma=%v products=%v n=%d", kt.name, gamma, viaProducts, n)
					if out[1] != math.SmallestNonzeroFloat64 || out[5] != math.SmallestNonzeroFloat64 {
						t.Errorf("%s: dead patterns = %g, %g, want the clamp", name, out[1], out[5])
					}
					if !math.IsNaN(out[2]) || !math.IsNaN(out[6]) {
						t.Errorf("%s: NaN patterns = %g, %g, want NaN", name, out[2], out[6])
					}
					if out[3] != 1 {
						t.Errorf("%s: zero-weight pattern = %g, want 1", name, out[3])
					}
					if !(out[0] > 0 && out[0] < 1) || out[0] != out[4] {
						t.Errorf("%s: live patterns = %g, %g", name, out[0], out[4])
					}
				}
			}
		}
	}
}

// logBlockInputs returns the inputs the blocked logarithm is pinned on:
// every binary exponent with random mantissas, values within 1e-3 of 1
// (where the result is all cancellation), exact powers of two, both
// sides of the sqrt(2)/2 range-reduction threshold at several
// exponents, and the special lanes — zero, subnormals, the smallest
// normal, MaxFloat64, +Inf, NaN, a negative.
func logBlockInputs() []float64 {
	r := rng.New(0x88)
	mant := func() uint64 { return uint64(r.Intn(1<<26))<<26 | uint64(r.Intn(1<<26)) }
	var xs []float64
	for e := uint64(1); e <= 0x7FE; e++ {
		for i := 0; i < 8; i++ {
			xs = append(xs, math.Float64frombits(e<<52|mant()))
		}
		xs = append(xs, math.Float64frombits(e<<52)) // 2^k
	}
	for i := 0; i < 20000; i++ {
		xs = append(xs, 1+(2*r.Float64()-1)*1e-3)
	}
	const hSqrt2 = 0x3FE6A09E667F3BCD
	for e := -1000; e <= 1000; e += 37 {
		for d := -3; d <= 3; d++ {
			xs = append(xs, math.Ldexp(math.Float64frombits(uint64(hSqrt2+d)), e))
		}
	}
	xs = append(xs, 0, math.SmallestNonzeroFloat64, 3*math.SmallestNonzeroFloat64, 0x1p-1040,
		math.Float64frombits(0x000FFFFFFFFFFFFF), 0x1p-1022, math.MaxFloat64,
		math.Inf(1), math.NaN(), -1, math.Copysign(0, -1), 1)
	return xs
}

// TestLogBlockMatchesMathLog holds every logBlock implementation to
// math.Log bit for bit — so also to each other — over logBlockInputs,
// in full blocks and in every short block length. The comparison with
// math.Log is made where math.Log is the routine the kernels replicate
// (amd64; elsewhere the compiler may contract its pure-Go twin
// differently); the implementations must agree everywhere.
func TestLogBlockMatchesMathLog(t *testing.T) {
	tables := []*kernelTable{&scalarKernels}
	if avx2Supported() {
		tables = append(tables, avx2KernelTable())
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	xs := logBlockInputs()
	lengths := []int{logBlockLen}
	for n := 0; n <= 9; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for lo := 0; lo+n <= len(xs); lo += max(n, 1) {
			var want [logBlockLen]float64
			for ti, kt := range tables {
				var src, dst [logBlockLen]float64
				copy(src[:], xs[lo:lo+n])
				for i := range dst {
					dst[i] = -12345 // must stay untouched beyond n
				}
				kt.logBlock(&dst, &src, n)
				for i := 0; i < n; i++ {
					x := xs[lo+i]
					if runtime.GOARCH == "amd64" && !same(dst[i], math.Log(x)) {
						t.Fatalf("%s: log(%x) = %x, math.Log %x", kt.name,
							math.Float64bits(x), math.Float64bits(dst[i]), math.Float64bits(math.Log(x)))
					}
					if ti > 0 && !same(dst[i], want[i]) {
						t.Fatalf("%s: log(%x) = %x, scalar %x", kt.name,
							math.Float64bits(x), math.Float64bits(dst[i]), math.Float64bits(want[i]))
					}
				}
				for i := (n + 3) &^ 3; i < logBlockLen; i++ {
					if dst[i] != -12345 {
						t.Fatalf("%s: n=%d wrote dst[%d]", kt.name, n, i)
					}
				}
				if ti == 0 {
					want = dst
				}
			}
			if n == 0 {
				break
			}
		}
	}
}

// TestKernelEquivalenceAtThreshold probes the rescale decision on the
// knife-edge, where the scalar short-circuit chain and the assembly
// idioms must decide identically.
//
// gamma parks lane values on a narrow band around scaleThreshold — the
// branch the two GAMMA idioms (scalar chain, asm VMAXPD + single compare)
// must take alike — and checks the CLVs and counters still match. The
// knife-edge is safe to probe because both paths compare the SAME
// computed values against the same constant; only the control-flow
// shape differs.
//
// cat puts every lane of a CAT pattern exactly on scaleThreshold or one
// ulp to either side of it — all 81 combinations, through each of the
// three newview shapes — and holds every kernel set to the one decision
// the scalar chain makes: rescale if and only if all four lanes are
// below the threshold, equality on the "not below" side. Identity
// matrices and unit factors make the kernels' products equal their
// inputs exactly.
func TestKernelEquivalenceAtThreshold(t *testing.T) {
	t.Run("gamma", thresholdGamma)
	t.Run("cat", thresholdCAT)
}

func thresholdGamma(t *testing.T) {
	if !avx2Supported() {
		t.Skip("no accelerated kernel table on this platform/build")
	}
	kt := avx2KernelTable()
	r := rng.New(0x55)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(16)
		lv := make([]float64, n*16)
		rv := make([]float64, n*16)
		for i := range lv {
			// Products of two ~sqrt(threshold) factors straddle the
			// threshold within a few ulps-to-decades.
			s := math.Sqrt(scaleThreshold) * (0.9 + 0.2*r.Float64())
			lv[i] = s
			rv[i] = s * (0.9 + 0.2*r.Float64())
		}
		pm := make([][16]float64, 4)
		for c := range pm {
			for i := range pm[c] {
				pm[c][i] = 0.9 + 0.1*r.Float64()
			}
		}
		lsc, rsc := make([]int32, n), make([]int32, n)
		ref := make([]float64, n*16)
		refSC := make([]int32, n)
		scalarKernels.newviewII4(ref, lv, rv, pm, pm, lsc, rsc, refSC)
		got := make([]float64, n*16)
		gotSC := make([]int32, n)
		kt.newviewII4(got, lv, rv, pm, pm, lsc, rsc, gotSC)
		for k := 0; k < n; k++ {
			if refSC[k] != gotSC[k] {
				t.Fatalf("trial %d: pattern %d scale count at threshold: scalar %d vs %s %d", trial, k, refSC[k], kt.name, gotSC[k])
			}
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("trial %d: clv[%d] at threshold: scalar %g vs %s %g", trial, i, ref[i], kt.name, got[i])
			}
		}
	}
}

func thresholdCAT(t *testing.T) {
	tables := []*kernelTable{&scalarKernels}
	if avx2Supported() {
		tables = append(tables, avx2KernelTable())
	}
	edge := [3]float64{math.Nextafter(scaleThreshold, 0), scaleThreshold, math.Nextafter(scaleThreshold, 1)}
	const n = 81
	blocks := make([]float64, n*4) // pattern k: lane i at edge[digit i of k in base 3]
	ones := make([]float64, n*4)
	want := make([]int32, n)
	for k := 0; k < n; k++ {
		below := 0
		for i, d := 0, k; i < 4; i, d = i+1, d/3 {
			blocks[k*4+i] = edge[d%3]
			ones[k*4+i] = 1
			if d%3 == 0 {
				below++
			}
		}
		if below == 4 {
			want[k] = 1
		}
	}
	identity := [][16]float64{{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}}
	// One-category tables: code c's block of lutEdge is pattern c's
	// lanes, 16 patterns at a time; lutOne is all ones.
	lutOne := ones[:64]
	codes := make([]msa.State, 16)
	for i := range codes {
		codes[i] = msa.State(i)
	}
	pcat, zero := make([]int, n), make([]int32, n)
	check := func(name string, lo int, out []float64, sc []int32) {
		t.Helper()
		for k := range sc {
			if sc[k] != want[lo+k] {
				t.Fatalf("%s: pattern %d rescaled %d times, want %d", name, lo+k, sc[k], want[lo+k])
			}
			for i := 0; i < 4; i++ {
				v := blocks[(lo+k)*4+i]
				if want[lo+k] == 1 {
					v *= scaleFactor
				}
				if math.Float64bits(out[k*4+i]) != math.Float64bits(v) {
					t.Fatalf("%s: pattern %d lane %d = %x, want %x", name, lo+k, i, math.Float64bits(out[k*4+i]), math.Float64bits(v))
				}
			}
		}
	}
	for _, kt := range tables {
		out, sc := make([]float64, n*4), make([]int32, n)
		kt.newviewIICAT(out, blocks, ones, identity, identity, pcat, 0, zero, zero, sc)
		check(kt.name+" newviewIICAT", 0, out, sc)
		for lo := 0; lo < n; lo += 16 {
			m := min(16, n-lo)
			lutEdge := make([]float64, 64)
			copy(lutEdge, blocks[lo*4:(lo+m)*4])
			out, sc = make([]float64, m*4), make([]int32, m)
			kt.newviewTTCAT(out, codes[:m], codes[:m], lutEdge, lutOne, pcat[:m], 0, sc)
			check(kt.name+" newviewTTCAT", lo, out, sc)
			out, sc = make([]float64, m*4), make([]int32, m)
			kt.newviewTICAT(out, codes[:m], lutOne, blocks[lo*4:(lo+m)*4], identity, pcat[:m], 0, zero[:m], sc)
			check(kt.name+" newviewTICAT", lo, out, sc)
		}
	}
}
