//go:build amd64 && !purego

package likelihood

import (
	"math"
	"testing"
)

// The constants of math.Exp's amd64 routine (src/math/exp_amd64.s).
const (
	twinLn2U     = 0.69314718055966295651160180568695068359375
	twinLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	twinLog2e    = 1.4426950408889634073599246810018920
	twinOverflow = 7.09782712893384e+02
)

var twinTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1,
	0.5, 1,
}

// expTwin transcribes math.Exp's amd64 routine in Go: its FMA sequence
// through math.FMA when fma is set, its plain one with every operation
// rounded on its own otherwise. normal is false for the inputs the
// routine sends to its not-finite, overflow, denormal or underflow
// exits, whose result the kernels leave to math.Exp.
func expTwin(x float64, fma bool) (y float64, normal bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) || x > twinOverflow {
		return 0, false
	}
	kf := math.RoundToEven(float64(x * twinLog2e)) // CVTSD2SL, round to nearest even
	if kf+0x3FF <= 0 || kf+0x3FF >= 0x7FF {
		return 0, false
	}
	var r float64
	if fma {
		r = math.FMA(-kf, twinLn2U, x)
		r = math.FMA(-kf, twinLn2L, r)
		r = float64(r * 0.0625)
		p := twinTaylor[0]
		for _, c := range twinTaylor[1:] {
			p = math.FMA(p, r, c)
		}
		r = float64(r * p)
		for i := 0; i < 3; i++ {
			r = float64(r * float64(r+2))
		}
		r = math.FMA(r, float64(r+2), 1)
	} else {
		r = x - float64(kf*twinLn2U)
		r = r - float64(kf*twinLn2L)
		r = float64(r * 0.0625)
		p := float64(twinTaylor[0] * r)
		for _, c := range twinTaylor[1:7] {
			p = float64(float64(p+c) * r)
		}
		r = float64(r * float64(p+1))
		for i := 0; i < 4; i++ {
			r = float64(r * float64(r+2))
		}
		r = r + 1
	}
	return float64(r * math.Float64frombits(uint64(int64(kf)+0x3FF)<<52)), true
}

// expBlockInputs covers [-746, 1] densely — past the underflow to zero
// at about -745.13 and the start of the subnormal results at about
// -708.40 — plus the edges: signed zeros, the subnormal and underflow
// boundaries and their neighbours, the overflow threshold, the
// exponents t·rate·λ of the engine's widest CAT range, NaN and the
// infinities.
func expBlockInputs() []float64 {
	var xs []float64
	const dense = 1 << 21
	for i := 0; i <= dense; i++ {
		xs = append(xs, -746+747*float64(i)/dense)
	}
	edges := []float64{
		0, math.Copysign(0, -1), 1e-300, -1e-300, 5e-324, -5e-324,
		-708.3964185322641, -708.39641853226408, -708.4, -709.08956571282405,
		-744.44007192138126, -745.13321910194111, -745.1332191019412, -745.2,
		twinOverflow, math.Nextafter(twinOverflow, 0), math.Nextafter(twinOverflow, 1000),
		-1e6, -1e300, -math.MaxFloat64, 1e300, -0.5 * 15 * 50, -4 * 15 * 50,
		math.NaN(), math.Inf(-1), math.Inf(1),
	}
	for _, x := range edges {
		xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
	}
	for len(xs)%4 != 0 {
		xs = append(xs, 0)
	}
	return xs
}

// TestExpBlockMatchesMathExp holds the AVX2 exponential to math.Exp bit
// for bit: the sequence math.Exp takes on this CPU (mathFMA) against
// math.Exp itself, the other one against its transcription — which must
// agree with math.Exp where it is the CPU's. Every lane outside math.Exp's
// normal path must be flagged special, and no other.
func TestExpBlockMatchesMathExp(t *testing.T) {
	if !avx2Supported() {
		t.Skip("no AVX2 on this machine")
	}
	xs := expBlockInputs()
	for _, fma := range []bool{mathFMA, !mathFMA} {
		if fma && !haveFMA {
			t.Log("no FMA on this machine: the FMA sequence runs unchallenged")
			continue
		}
		var dst [4]float64
		for lo := 0; lo < len(xs); lo += 4 {
			special := expBlockAVX2(4, &dst[0], &xs[lo], fma)
			for i := 0; i < 4; i++ {
				x := xs[lo+i]
				want, normal := expTwin(x, fma)
				if flagged := special>>uint(i)&1 == 1; flagged == normal {
					t.Fatalf("fma=%v: exp(%v) flagged special %v, math.Exp's normal path %v", fma, x, flagged, normal)
				}
				if !normal {
					continue
				}
				if fma == mathFMA {
					if ref := math.Exp(x); math.Float64bits(want) != math.Float64bits(ref) {
						t.Fatalf("fma=%v: transcription exp(%v) = %#x, math.Exp %#x", fma, x, math.Float64bits(want), math.Float64bits(ref))
					}
				}
				if math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("fma=%v: expBlock(%v) = %#x, want %#x", fma, x, math.Float64bits(dst[i]), math.Float64bits(want))
				}
			}
		}
	}
	// The probe that tells the sequences apart.
	x := math.Float64frombits(expProbe)
	if y, _ := expTwin(x, true); math.Float64bits(y) != expProbeFMA {
		t.Fatalf("FMA sequence at the probe: %#x, want %#x", math.Float64bits(y), uint64(expProbeFMA))
	}
	if y, _ := expTwin(x, false); math.Float64bits(y) != expProbeFMA-1 {
		t.Fatalf("plain sequence at the probe: %#x, want %#x", math.Float64bits(y), uint64(expProbeFMA-1))
	}
}
