package likelihood

import (
	"fmt"
	"math"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/rng"
	"raxml/internal/tree"
)

// pTripleLoop is gtr.Model.P as it was first written — the 4×4×4 triple
// loop recomputing evec[i][k]·expl[k] for every j — with each product
// converted explicitly, so that no build contracts it, and written in the
// engine's column layout (P(j|i) at dst[j*4+i]): the oracle the
// transition-matrix block is held to.
func pTripleLoop(m *gtr.Model, t, rate float64, dst *[16]float64) {
	e := m.Eigensystem()
	tt := t * rate
	if tt < 0 {
		tt = 0
	}
	var expl [4]float64
	for k := 0; k < 4; k++ {
		expl[k] = math.Exp(float64(e.Eval[k] * tt))
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			sum := 0.0
			for k := 0; k < 4; k++ {
				sum += float64(float64(e.Evec[i][k]*expl[k]) * e.Inv[k][j])
			}
			if sum < 0 {
				sum = 0
			}
			dst[j*4+i] = sum
		}
	}
}

// randomGTR draws a model through gtr.New: exchangeabilities spread over
// two decades, frequencies from nearly uniform to strongly skewed.
func randomGTR(r *rng.RNG) *gtr.Model {
	var rates [6]float64
	for i := range rates {
		rates[i] = math.Exp(-2 + 4.5*r.Float64())
	}
	var freqs [4]float64
	sum := 0.0
	for i := range freqs {
		freqs[i] = 0.02 + r.Float64()
		sum += freqs[i]
	}
	for i := range freqs {
		freqs[i] /= sum
	}
	m, err := gtr.New(rates, freqs)
	if err != nil {
		panic(err)
	}
	return m
}

// blockRateSets draws the two category shapes of a partition: 25 CAT
// rates spread log-uniformly over [MinCATRate, MaxCATRate] with both
// bounds included, and the four GAMMA(α) rates of a random α.
func blockRateSets(r *rng.RNG) []rateSet {
	cat := make([]float64, 25)
	cat[0], cat[1] = gtr.MinCATRate, gtr.MaxCATRate
	lo, hi := math.Log(gtr.MinCATRate), math.Log(gtr.MaxCATRate)
	for i := 2; i < len(cat); i++ {
		cat[i] = math.Exp(lo + (hi-lo)*r.Float64())
	}
	gamma, err := gtr.GammaCategories(math.Exp(-3+6*r.Float64()), 4)
	if err != nil {
		panic(err)
	}
	return []rateSet{{"CAT25", cat}, {"GAMMA4", gamma}}
}

type rateSet struct {
	name  string
	rates []float64
}

// blockLengths draws the branch lengths of one check: both zeros, the
// minimum, a typical and the maximum length, one whose exponentials
// underflow at the top CAT rates, and a negative one, which the block
// clamps to 0.
func blockLengths(r *rng.RNG) []float64 {
	return []float64{0, math.Copysign(0, -1), tree.MinBranchLength, 0.5 * r.Float64(), tree.MaxBranchLength, 30, -0.25}
}

// kernelTables is every table this build can run, the scalar reference
// first.
func kernelTables() []*kernelTable {
	tables := []*kernelTable{&scalarKernels}
	if avx2Supported() {
		tables = append(tables, avx2KernelTable())
	}
	return tables
}

// TestPBlockMatchesModelP holds every pBlock implementation to the
// triple-loop oracle bit for bit, on random eigensystems, CAT and GAMMA
// rates and branch lengths from 0 and the minimum to lengths whose
// exponentials underflow (t·rate up to 1500), which the AVX2 block hands
// to the scalar path, and negative ones.
func TestPBlockMatchesModelP(t *testing.T) {
	r := rng.New(41)
	models := 3000
	if testing.Short() {
		models = 300
	}
	for _, kt := range kernelTables() {
		for mi := 0; mi < models; mi++ {
			m := randomGTR(r)
			for _, set := range blockRateSets(r) {
				name, rates := set.name, set.rates
				for _, bl := range blockLengths(r) {
					dst := make([][16]float64, len(rates))
					kt.pBlock(m, bl, rates, dst)
					for c, rate := range rates {
						var want [16]float64
						pTripleLoop(m, bl, rate, &want)
						for i := range want {
							if math.Float64bits(dst[c][i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s %s model %d t=%g rate=%g: P[%d] = %#x, oracle %#x", kt.name, name, mi, bl, rate, i,
									math.Float64bits(dst[c][i]), math.Float64bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestExpFactorsMatchExpEigen holds every expFactors implementation to
// gtr.Model.ExpEigen bit for bit over the same draws.
func TestExpFactorsMatchExpEigen(t *testing.T) {
	r := rng.New(42)
	for _, kt := range kernelTables() {
		for mi := 0; mi < 1000; mi++ {
			m := randomGTR(r)
			for _, set := range blockRateSets(r) {
				name, rates := set.name, set.rates
				for _, bl := range blockLengths(r) {
					n := 4 * len(rates)
					e0, e1, e2 := make([]float64, n), make([]float64, n), make([]float64, n)
					kt.expFactors(m, bl, rates, e0, e1, e2)
					for c, rate := range rates {
						var w0, w1, w2 [4]float64
						m.ExpEigen(bl, rate, &w0, &w1, &w2)
						for k := 0; k < 4; k++ {
							got := [3]float64{e0[c*4+k], e1[c*4+k], e2[c*4+k]}
							want := [3]float64{w0[k], w1[k], w2[k]}
							for d := range got {
								if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
									t.Fatalf("%s %s model %d t=%g rate=%g: e%d[%d] = %#x, ExpEigen %#x", kt.name, name, mi, bl, rate, d, k,
										math.Float64bits(got[d]), math.Float64bits(want[d]))
								}
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkPBlock times one partition's transition-matrix block per
// kernel set, per matrix: the 25 categories of a CAT partition and the
// four of GAMMA, at a typical branch length.
func BenchmarkPBlock(b *testing.B) {
	r := rng.New(7)
	m := randomGTR(r)
	for _, set := range blockRateSets(r) {
		rates := set.rates
		for _, kt := range kernelTables() {
			b.Run(fmt.Sprintf("%s/%s", set.name, kt.name), func(b *testing.B) {
				dst := make([][16]float64, len(rates))
				for i := 0; i < b.N; i++ {
					kt.pBlock(m, 0.1, rates, dst)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rates)), "ns/matrix")
			})
		}
	}
}
