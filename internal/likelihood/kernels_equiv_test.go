package likelihood

import (
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
// of each kernel-table entry, and the outputs must agree to 1e-12
// relative with IDENTICAL scale counters. The asm is designed
// bit-identical (same pairwise association, no FMA), so in practice the
// comparison is exact; the 1e-12 band is the contract docs/kernels.md
// promises. All generated values are finite: the rescale decision of
// the scalar short-circuit chain and the asm VMAXPD reduction agree on
// every finite input but may differ on NaN lanes, which no engine path
// produces.
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
	randMats := func(r *rng.RNG) [][16]float64 {
		pm := make([][16]float64, 4)
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
			pL, pR := randMats(r), randMats(r)
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
			pm := randMats(r)
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

	t.Run("scanJoinCAT", func(t *testing.T) {
		r := rng.New(0x66)
		for trial := 0; trial < 300; trial++ {
			n := 1 + r.Intn(logBlockLen)
			nc := 1 + r.Intn(25)
			x, y, s := randScanView(r, n, 1), randScanView(r, n, 1), randScanView(r, n, 1)
			pHalf, pPend := make([][16]float64, nc), make([][16]float64, nc)
			for c := 0; c < nc; c++ {
				for i := 0; i < 16; i++ {
					pHalf[c][i], pPend[c][i] = r.Float64(), r.Float64()
				}
			}
			pcat := make([]int, n)
			for i := range pcat {
				pcat[i] = r.Intn(nc)
			}
			w, freqs := randWeights(r, n), randFreqs(r)
			ref := make([]float64, n)
			scalarKernels.scanJoinCAT(ref, x.vec, y.vec, s.vec, pcat, pHalf, pPend, freqs, w)
			for i, wk := range w {
				if wk == 0 && ref[i] != 1 {
					t.Fatalf("trial %d: zero-weight site[%d] = %g, want 1", trial, i, ref[i])
				}
			}
			for _, kt := range alt {
				got := make([]float64, n)
				kt.scanJoinCAT(got, x.vec, y.vec, s.vec, pcat, pHalf, pPend, freqs, w)
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
			x, y, s := randScanView(r, n, nCat), randScanView(r, n, nCat), randScanView(r, n, nCat)
			pHalf, pPend := make([][16]float64, nCat), make([][16]float64, nCat)
			probs := make([]float64, nCat)
			for c := 0; c < nCat; c++ {
				probs[c] = 1 / float64(nCat)
				for i := 0; i < 16; i++ {
					pHalf[c][i], pPend[c][i] = r.Float64(), r.Float64()
				}
			}
			w, freqs := randWeights(r, n), randFreqs(r)
			ref := make([]float64, n)
			scalarKernels.scanJoinGamma(ref, x.vec, x.stride, y.vec, y.stride, s.vec, s.stride, pHalf, pPend, freqs, probs, w)
			for _, kt := range alt {
				got := make([]float64, n)
				kt.scanJoinGamma(got, x.vec, x.stride, y.vec, y.stride, s.vec, s.stride, pHalf, pPend, freqs, probs, w)
				checkSites(t, kt.name, trial, ref, got)
			}
		}
	})
}

// TestScanJoinClampAndNaN pins the edges of the scan-join output
// contract on every kernel set: an all-zero pattern (a likelihood that
// underflowed entirely) clamps to SmallestNonzeroFloat64, a NaN lane
// stays NaN as under math.Max, and zero-weight patterns read 1.
func TestScanJoinClampAndNaN(t *testing.T) {
	tables := []*kernelTable{&scalarKernels}
	if avx2Supported() {
		tables = append(tables, avx2KernelTable())
	}
	const n = 8
	// edgeCases builds a view of n patterns, `lanes` floats each, all
	// 0.25 except pattern 1 (dead likelihood) and pattern 2 (poisoned).
	edgeCases := func(lanes int) (x, one []float64) {
		one = make([]float64, n*lanes)
		for i := range one {
			one[i] = 0.25
		}
		x = append([]float64(nil), one...)
		for i := 0; i < lanes; i++ {
			x[1*lanes+i] = 0
			x[2*lanes+i] = math.NaN()
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
	w := []int{1, 1, 1, 0, 1, 1, 1, 1}
	pcat := make([]int, n)
	for _, kt := range tables {
		for _, gamma := range []bool{false, true} {
			out := make([]float64, n)
			if gamma {
				x, one := edgeCases(16)
				kt.scanJoinGamma(out, x, 16, one, 16, one, 16, pm, pm, freqs, probs, w)
			} else {
				x, one := edgeCases(4)
				kt.scanJoinCAT(out, x, one, one, pcat, pm, pm, freqs, w)
			}
			if out[1] != math.SmallestNonzeroFloat64 {
				t.Errorf("%s gamma=%v: dead pattern = %g, want the clamp", kt.name, gamma, out[1])
			}
			if !math.IsNaN(out[2]) {
				t.Errorf("%s gamma=%v: NaN pattern = %g, want NaN", kt.name, gamma, out[2])
			}
			if out[3] != 1 {
				t.Errorf("%s gamma=%v: zero-weight pattern = %g, want 1", kt.name, gamma, out[3])
			}
			if !(out[0] > 0 && out[0] < 1) || out[0] != out[4] {
				t.Errorf("%s gamma=%v: live patterns = %g, %g", kt.name, gamma, out[0], out[4])
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

// TestKernelEquivalenceAtThreshold parks lane values deliberately on a
// narrow band around scaleThreshold — the branch the two rescale idioms
// (scalar short-circuit chain, asm VMAXPD + single compare) must decide
// identically — and checks the CLVs and counters still match. The
// knife-edge is safe to probe because both paths compare the SAME
// computed values against the same constant; only the control-flow
// shape differs.
func TestKernelEquivalenceAtThreshold(t *testing.T) {
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
