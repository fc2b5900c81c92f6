package likelihood

import "math"

// Blocked logarithm. Every log-space reduction (insertion scan,
// evaluate, site-LL) takes the natural log of one site likelihood per
// live pattern, and on amd64 math.Log is an assembly routine behind a
// non-inlinable ABI0 call whose ~40-cycle DIVSD-bound dependency chain
// cannot overlap with its neighbours'. The kernels therefore collect up
// to logBlockLen site likelihoods and take their logs in one
// kernel-table call. logBlockScalar runs the operation sequence of that
// assembly routine (FreeBSD's e_log.c, as the pure-Go math.log also
// does) lane after lane in a loop the CPU pipelines across lanes; the
// AVX2 twin runs it four lanes at a time. Each operation is the same
// IEEE-754 double operation on the same operands in both, so all three
// — math.Log, scalar, AVX2 — return the same bits; docs/kernels.md
// spells the argument out and TestLogBlockMatchesMathLog pins it.

// logBlockLen is the number of patterns the log-space kernels reduce
// per logBlock call.
const logBlockLen = 64

const (
	logLn2Hi = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
	logLn2Lo = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
	logL1    = 6.666666666666735130e-01   // 0x3FE5555555555593
	logL2    = 3.999999999940941908e-01   // 0x3FD999999997FA04
	logL3    = 2.857142874366239149e-01   // 0x3FD2492494229359
	logL4    = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
	logL5    = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
	logL6    = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
	logL7    = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244

	logMantMask = 0x000FFFFFFFFFFFFF
	// logHSqrt2Mant is the mantissa field of sqrt(2)/2 =
	// 0x3FE6A09E667F3BCD, the threshold of the range reduction.
	logHSqrt2Mant = 0x0006A09E667F3BCD
)

// logBlockScalar sets dst[i] = math.Log(src[i]) for i < n, bit for bit.
// Positive normal inputs take the inline path; zeros, subnormals,
// negatives, infinities and NaNs — which the clamped site likelihoods
// produce only when a pattern's likelihood underflowed entirely — go to
// math.Log itself. The explicit float64 conversions round every product
// on its own: the language lets a compiler fuse x*y+z, and a conversion
// is the rounding point it may not fuse across, so the sequence stays
// identical to the assembly math.Log and to the AVX2 twin in every
// build.
func logBlockScalar(dst, src *[logBlockLen]float64, n int) {
	for i := 0; i < n; i++ {
		x := src[i]
		bits := math.Float64bits(x)
		exp := bits >> 52 // sign and biased exponent
		if exp-1 >= 0x7FE {
			dst[i] = math.Log(x)
			continue
		}
		// f1, k = frexp(x), then f1 in (sqrt2/2, sqrt2]: when the
		// mantissa is at most sqrt(2)/2's, double f1 and decrement k.
		// Both are exact, so folding them into the exponent fields is
		// the routine's compare-and-multiply.
		mant := bits & logMantMask
		low := 1 - (logHSqrt2Mant-mant)>>63 // 1 when f1 <= sqrt(2)/2
		f := math.Float64frombits(mant|(0x3FE+low)<<52) - 1
		k := float64(int64(exp) - 0x3FE - int64(low))

		s := f / (2 + f)
		s2 := float64(s * s)
		s4 := float64(s2 * s2)
		t1 := float64(s2 * (logL1 + float64(s4*(logL3+float64(s4*(logL5+float64(s4*logL7)))))))
		t2 := float64(s4 * (logL2 + float64(s4*(logL4+float64(s4*logL6)))))
		r := t1 + t2
		hfsq := float64(float64(0.5*f) * f)
		dst[i] = float64(k*logLn2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*logLn2Lo))) - f)
	}
}
