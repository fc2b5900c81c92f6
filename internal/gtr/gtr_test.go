package gtr

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"raxml/internal/rng"
)

func randomModel(r *rng.RNG) *Model {
	var rates [6]float64
	for i := range rates {
		rates[i] = 0.2 + 3*r.Float64()
	}
	rates[5] = 1
	var freqs [4]float64
	sum := 0.0
	for i := range freqs {
		freqs[i] = 0.1 + r.Float64()
		sum += freqs[i]
	}
	for i := range freqs {
		freqs[i] /= sum
	}
	m, err := New(rates, freqs)
	if err != nil {
		panic(err)
	}
	return m
}

func TestNewRejectsBadParams(t *testing.T) {
	if _, err := New([6]float64{1, 1, 1, 1, 1, 0}, [4]float64{0.25, 0.25, 0.25, 0.25}); err == nil {
		t.Error("accepted zero exchangeability")
	}
	if _, err := New([6]float64{1, 1, 1, 1, 1, 1}, [4]float64{0.5, 0.5, 0.25, 0.25}); err == nil {
		t.Error("accepted frequencies not summing to 1")
	}
	if _, err := New([6]float64{1, 1, 1, 1, 1, 1}, [4]float64{1.0, 0.0, 0.0, 0.0}); err == nil {
		t.Error("accepted zero frequency")
	}
}

func TestQRowsSumToZero(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		m := randomModel(r)
		q := m.Q()
		for i := 0; i < 4; i++ {
			row := 0.0
			for j := 0; j < 4; j++ {
				row += q[i][j]
			}
			if math.Abs(row) > 1e-12 {
				t.Fatalf("Q row %d sums to %g", i, row)
			}
		}
	}
}

func TestQNormalized(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		m := randomModel(r)
		q := m.Q()
		rate := 0.0
		for i := 0; i < 4; i++ {
			rate -= m.Freqs[i] * q[i][i]
		}
		if math.Abs(rate-1) > 1e-12 {
			t.Fatalf("expected substitution rate %g, want 1", rate)
		}
	}
}

func TestPRowStochastic(t *testing.T) {
	prop := func(seed int64, tRaw, rateRaw uint16) bool {
		r := rng.New(seed)
		m := randomModel(r)
		tt := float64(tRaw) / 6553.5 // [0, 10]
		rate := 0.01 + float64(rateRaw)/65535*5
		var p [16]float64
		m.P(tt, rate, &p)
		for i := 0; i < 4; i++ {
			row := 0.0
			for j := 0; j < 4; j++ {
				if p[i*4+j] < -1e-12 || p[i*4+j] > 1+1e-9 {
					return false
				}
				row += p[i*4+j]
			}
			if math.Abs(row-1) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPZeroTimeIsIdentity(t *testing.T) {
	m := randomModel(rng.New(3))
	var p [16]float64
	m.P(0, 1, &p)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(p[i*4+j]-want) > 1e-10 {
				t.Fatalf("P(0)[%d][%d] = %g, want %g", i, j, p[i*4+j], want)
			}
		}
	}
}

func TestPLongTimeReachesStationarity(t *testing.T) {
	m := randomModel(rng.New(4))
	var p [16]float64
	m.P(500, 1, &p)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(p[i*4+j]-m.Freqs[j]) > 1e-6 {
				t.Fatalf("P(inf)[%d][%d] = %g, want stationary %g", i, j, p[i*4+j], m.Freqs[j])
			}
		}
	}
}

func TestPChapmanKolmogorov(t *testing.T) {
	// P(t1+t2) == P(t1) P(t2)
	m := randomModel(rng.New(5))
	var p1, p2, p12, prod [16]float64
	m.P(0.3, 1, &p1)
	m.P(0.5, 1, &p2)
	m.P(0.8, 1, &p12)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			s := 0.0
			for k := 0; k < 4; k++ {
				s += p1[i*4+k] * p2[k*4+j]
			}
			prod[i*4+j] = s
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(prod[i*4+j]-p12[i*4+j]) > 1e-9 {
				t.Fatalf("Chapman-Kolmogorov violated at [%d][%d]: %g vs %g",
					i, j, prod[i*4+j], p12[i*4+j])
			}
		}
	}
}

func TestDetailedBalance(t *testing.T) {
	// Reversibility: π_i P_ij(t) == π_j P_ji(t).
	m := randomModel(rng.New(6))
	var p [16]float64
	m.P(0.7, 1, &p)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			lhs := m.Freqs[i] * p[i*4+j]
			rhs := m.Freqs[j] * p[j*4+i]
			if math.Abs(lhs-rhs) > 1e-10 {
				t.Fatalf("detailed balance violated at (%d,%d): %g vs %g", i, j, lhs, rhs)
			}
		}
	}
}

func TestEigenvaluesNonPositive(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		m := randomModel(r)
		zero := 0
		for _, ev := range m.Eigensystem().Eval {
			if ev > 1e-9 {
				t.Fatalf("positive eigenvalue %g", ev)
			}
			if math.Abs(ev) < 1e-9 {
				zero++
			}
		}
		if zero != 1 {
			t.Fatalf("found %d zero eigenvalues, want exactly 1", zero)
		}
	}
}

func TestPDerivMatchesFiniteDifference(t *testing.T) {
	m := randomModel(rng.New(8))
	const h = 1e-6
	for _, tt := range []float64{0.05, 0.2, 1.0} {
		var p, d1, d2, pPlus, pMinus [16]float64
		m.PDeriv(tt, 1, &p, &d1, &d2)
		m.P(tt+h, 1, &pPlus)
		m.P(tt-h, 1, &pMinus)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				fd1 := (pPlus[i*4+j] - pMinus[i*4+j]) / (2 * h)
				if math.Abs(fd1-d1[i*4+j]) > 1e-4*(1+math.Abs(fd1)) {
					t.Fatalf("t=%g d1[%d][%d]: analytic %g vs FD %g", tt, i, j, d1[i*4+j], fd1)
				}
				fd2 := (pPlus[i*4+j] - 2*p[i*4+j] + pMinus[i*4+j]) / (h * h)
				if math.Abs(fd2-d2[i*4+j]) > 1e-2*(1+math.Abs(fd2)) {
					t.Fatalf("t=%g d2[%d][%d]: analytic %g vs FD %g", tt, i, j, d2[i*4+j], fd2)
				}
			}
		}
	}
}

func TestJukesCantorClosedForm(t *testing.T) {
	// JC69: P_ii = 1/4 + 3/4 e^{-4t/3}, P_ij = 1/4 - 1/4 e^{-4t/3}.
	m := JukesCantor()
	for _, tt := range []float64{0.01, 0.1, 0.5, 2} {
		var p [16]float64
		m.P(tt, 1, &p)
		e := math.Exp(-4 * tt / 3)
		same := 0.25 + 0.75*e
		diff := 0.25 - 0.25*e
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := diff
				if i == j {
					want = same
				}
				if math.Abs(p[i*4+j]-want) > 1e-10 {
					t.Fatalf("JC P(%g)[%d][%d] = %g, want %g", tt, i, j, p[i*4+j], want)
				}
			}
		}
	}
}

func TestGammaCategoriesMeanOne(t *testing.T) {
	for _, alpha := range []float64{0.1, 0.5, 1.0, 2.0, 10.0} {
		for _, k := range []int{1, 2, 4, 8} {
			rates, err := GammaCategories(alpha, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(rates) != k {
				t.Fatalf("alpha=%g k=%d: got %d rates", alpha, k, len(rates))
			}
			mean := 0.0
			for i, r := range rates {
				if r < 0 {
					t.Fatalf("negative rate %g", r)
				}
				if i > 0 && rates[i] < rates[i-1] {
					t.Fatalf("rates not increasing: %v", rates)
				}
				mean += r
			}
			mean /= float64(k)
			if math.Abs(mean-1) > 1e-9 {
				t.Fatalf("alpha=%g k=%d: mean rate %g, want 1", alpha, k, mean)
			}
		}
	}
}

func TestGammaCategoriesSpreadShrinksWithAlpha(t *testing.T) {
	low, _ := GammaCategories(0.3, 4)
	high, _ := GammaCategories(5.0, 4)
	if low[3]-low[0] <= high[3]-high[0] {
		t.Fatalf("rate spread should shrink as alpha grows: %v vs %v", low, high)
	}
}

func TestGammaCategoriesErrors(t *testing.T) {
	if _, err := GammaCategories(0, 4); err == nil {
		t.Error("accepted alpha=0")
	}
	if _, err := GammaCategories(1, 0); err == nil {
		t.Error("accepted k=0")
	}
}

func TestRegIncGamma(t *testing.T) {
	// P(1, x) = 1 - e^{-x}
	for _, x := range []float64{0.1, 1, 2, 5} {
		want := 1 - math.Exp(-x)
		if got := regIncGamma(1, x); math.Abs(got-want) > 1e-12 {
			t.Fatalf("P(1,%g) = %g, want %g", x, got, want)
		}
	}
	if got := regIncGamma(3, 0); got != 0 {
		t.Fatalf("P(3,0) = %g, want 0", got)
	}
	// monotone in x
	prev := -1.0
	for x := 0.0; x < 20; x += 0.5 {
		v := regIncGamma(2.5, x)
		if v < prev-1e-12 {
			t.Fatalf("P(2.5,x) not monotone at x=%g", x)
		}
		prev = v
	}
}

func TestGammaQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		q := gammaQuantile(p, 0.7, 0.7)
		if back := regIncGamma(0.7, q*0.7); math.Abs(back-p) > 1e-8 {
			t.Fatalf("quantile(%g) = %g maps back to %g", p, q, back)
		}
	}
}

func TestNewGamma(t *testing.T) {
	rc, err := NewGamma(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rc.IsCAT() {
		t.Error("GAMMA treatment should not be CAT")
	}
	if rc.NumCats() != 4 {
		t.Errorf("NumCats = %d, want 4", rc.NumCats())
	}
	sum := 0.0
	for _, p := range rc.Probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("category probabilities sum to %g", sum)
	}
}

func TestNewUniform(t *testing.T) {
	rc := NewUniform(10)
	if !rc.IsCAT() {
		t.Error("uniform treatment should be CAT-style (per-pattern)")
	}
	if rc.NumCats() != 1 || rc.Rates[0] != 1 {
		t.Errorf("uniform rates = %v", rc.Rates)
	}
	for _, c := range rc.PatternCategory {
		if c != 0 {
			t.Error("uniform treatment should assign category 0 everywhere")
		}
	}
}

func TestClusterCAT(t *testing.T) {
	perPattern := []float64{0.1, 0.11, 0.12, 1.0, 1.05, 9.5, 10.0}
	rc := clusterCAT(perPattern, 3)
	if !rc.IsCAT() {
		t.Fatal("ClusterCATInto should build a CAT treatment")
	}
	if rc.NumCats() > 3 {
		t.Fatalf("got %d categories, want <= 3", rc.NumCats())
	}
	if len(rc.PatternCategory) != len(perPattern) {
		t.Fatalf("assignment length %d, want %d", len(rc.PatternCategory), len(perPattern))
	}
	// similar rates should share a category
	if rc.PatternCategory[0] != rc.PatternCategory[1] {
		t.Error("0.1 and 0.11 should share a category")
	}
	if rc.PatternCategory[0] == rc.PatternCategory[6] {
		t.Error("0.1 and 10.0 should not share a category")
	}
}

func TestClusterCATBounds(t *testing.T) {
	rc := clusterCAT([]float64{1e-9, 1e9}, 4)
	for _, r := range rc.Rates {
		if r < MinCATRate-1e-12 || r > MaxCATRate+1e-12 {
			t.Fatalf("category rate %g outside [%g, %g]", r, MinCATRate, MaxCATRate)
		}
	}
}

func TestClusterCATHomogeneous(t *testing.T) {
	rc := clusterCAT([]float64{1, 1, 1, 1}, 25)
	if rc.NumCats() != 1 {
		t.Fatalf("homogeneous rates produced %d categories", rc.NumCats())
	}
}

func TestNormalizeCAT(t *testing.T) {
	rc := clusterCAT([]float64{0.5, 0.5, 2.0, 2.0}, 4)
	weights := []int{1, 1, 1, 1}
	rc.Normalize(weights)
	mean := 0.0
	for _, c := range rc.PatternCategory {
		mean += rc.Rates[c]
	}
	mean /= 4
	if math.Abs(mean-1) > 1e-9 {
		t.Fatalf("normalized mean rate = %g, want 1", mean)
	}
}

func TestSetRatesRecomputes(t *testing.T) {
	m := JukesCantor()
	var pBefore [16]float64
	m.P(0.5, 1, &pBefore)
	if err := m.SetRates([6]float64{4, 8, 1, 1, 8, 1}); err != nil {
		t.Fatal(err)
	}
	var pAfter [16]float64
	m.P(0.5, 1, &pAfter)
	diff := 0.0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			diff += math.Abs(pAfter[i*4+j] - pBefore[i*4+j])
		}
	}
	if diff < 1e-6 {
		t.Fatal("SetRates did not change transition probabilities")
	}
	// still row-stochastic after re-decomposition
	for i := 0; i < 4; i++ {
		row := 0.0
		for j := 0; j < 4; j++ {
			row += pAfter[i*4+j]
		}
		if math.Abs(row-1) > 1e-8 {
			t.Fatalf("row %d sums to %g after SetRates", i, row)
		}
	}
}

func TestEmpiricalFreqs(t *testing.T) {
	f := EmpiricalFreqs([4]float64{97, 1, 1, 1})
	sum := 0.0
	for _, v := range f {
		if v <= 0 {
			t.Fatal("empirical frequency not positive")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("frequencies sum to %g", sum)
	}
	if f[0] < 0.9 {
		t.Fatalf("dominant state frequency %g too low", f[0])
	}
	zero := EmpiricalFreqs([4]float64{})
	for _, v := range zero {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("all-zero counts should smooth to uniform, got %v", zero)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := randomModel(rng.New(10))
	c := m.Clone()
	if err := c.SetRates([6]float64{9, 1, 1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if m.Rates[0] == 9 {
		t.Fatal("clone shares rate storage with original")
	}
}

func BenchmarkP(b *testing.B) {
	m := randomModel(rng.New(1))
	var p [16]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.P(0.1, 1.0, &p)
	}
}

func BenchmarkPDeriv(b *testing.B) {
	m := randomModel(rng.New(1))
	var p, d1, d2 [16]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PDeriv(0.1, 1.0, &p, &d1, &d2)
	}
}

func BenchmarkDecompose(b *testing.B) {
	m := randomModel(rng.New(1))
	rates := m.Rates
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.SetRates(rates); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSumtableBasisDiagonalizesP verifies the algebraic identity the
// eigen-basis makenewz kernels rely on: for arbitrary CLV-like vectors
// a and b, the π-weighted quadratic form through P(t·r) — and through
// each of PDeriv's derivative matrices — equals the diagonal form
// Σ_k factor[k]·(aᵀ·left)_k·(right·b)_k with the SumtableBasis
// projections and the ExpEigen factors.
func TestSumtableBasisDiagonalizesP(t *testing.T) {
	m, err := New([6]float64{1.3, 2.9, 0.55, 0.8, 2.2, 1}, [4]float64{0.31, 0.19, 0.27, 0.23})
	if err != nil {
		t.Fatal(err)
	}
	a := [4]float64{0.9, 0.02, 0.4, 0.13}
	b := [4]float64{0.05, 0.88, 0.21, 0.6}
	left, right := m.SumtableBasis()
	var table [4]float64
	for k := 0; k < 4; k++ {
		lz, rz := 0.0, 0.0
		for s := 0; s < 4; s++ {
			lz += left[s*4+k] * a[s]
			rz += right[k*4+s] * b[s]
		}
		table[k] = lz * rz
	}
	for _, tv := range []float64{1e-8, 1e-3, 0.1, 0.9, 4.0} {
		for _, rate := range []float64{0.25, 1, 3.7} {
			var p, d1, d2 [16]float64
			m.PDeriv(tv, rate, &p, &d1, &d2)
			quad := func(mat *[16]float64) float64 {
				sum := 0.0
				for s := 0; s < 4; s++ {
					for j := 0; j < 4; j++ {
						sum += m.Freqs[s] * a[s] * mat[s*4+j] * b[j]
					}
				}
				return sum
			}
			var e0, e1, e2 [4]float64
			m.ExpEigen(tv, rate, &e0, &e1, &e2)
			diag := func(f *[4]float64) float64 {
				return f[0]*table[0] + f[1]*table[1] + f[2]*table[2] + f[3]*table[3]
			}
			checks := []struct {
				name        string
				matrix, eig float64
			}{
				{"P", quad(&p), diag(&e0)},
				{"dP", quad(&d1), diag(&e1)},
				{"d2P", quad(&d2), diag(&e2)},
			}
			for _, c := range checks {
				d := math.Abs(c.matrix - c.eig)
				if d > 1e-12*(1+math.Abs(c.matrix)) {
					t.Errorf("t=%g rate=%g %s: matrix form %.15g vs eigen form %.15g",
						tv, rate, c.name, c.matrix, c.eig)
				}
			}
		}
	}
	// The left projection is exactly the π-weighted eigenvector matrix.
	for s := 0; s < 4; s++ {
		for k := 0; k < 4; k++ {
			if left[s*4+k] != m.Freqs[s]*m.eig.Evec[s][k] {
				t.Fatalf("left[%d][%d] != π_s·evec", s, k)
			}
		}
	}
}

// pTripleLoop is P as first written — the triple loop recomputing
// evec[i][k]·expl[k] for every j — with each product converted
// explicitly so no build contracts it: the oracle P is pinned to.
func pTripleLoop(m *Model, t, rate float64, dst *[16]float64) {
	tt := t * rate
	if tt < 0 {
		tt = 0
	}
	var expl [4]float64
	for k := 0; k < 4; k++ {
		expl[k] = math.Exp(float64(m.eig.Eval[k] * tt))
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			sum := 0.0
			for k := 0; k < 4; k++ {
				sum += float64(float64(m.eig.Evec[i][k]*expl[k]) * m.eig.Inv[k][j])
			}
			if sum < 0 {
				sum = 0
			}
			dst[i*4+j] = sum
		}
	}
}

// TestPMatchesTripleLoop: hoisting evec[i][k]·expl[k] out of the j loop
// moves no bit, nor does ExpEigen's factor form, on random models, rates
// and branch lengths (including t = 0 and lengths that underflow).
func TestPMatchesTripleLoop(t *testing.T) {
	r := rng.New(20)
	for trial := 0; trial < 20000; trial++ {
		m := randomModel(r)
		tv := []float64{0, 1e-8, r.Float64(), 15 * r.Float64(), 30}[trial%5]
		rate := math.Exp(math.Log(1e-3) + math.Log(5e4)*r.Float64())
		var got, want [16]float64
		m.P(tv, rate, &got)
		pTripleLoop(m, tv, rate, &want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d t=%g rate=%g: P[%d] = %#x, triple loop %#x", trial, tv, rate, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		var e0, e1, e2 [4]float64
		m.ExpEigen(tv, rate, &e0, &e1, &e2)
		tt := max(tv*rate, 0)
		for k := 0; k < 4; k++ {
			lr := float64(m.eig.Eval[k] * rate)
			ex := math.Exp(float64(m.eig.Eval[k] * tt))
			want := [3]float64{ex, float64(lr * ex), float64(float64(lr*lr) * ex)}
			for d, g := range [3]float64{e0[k], e1[k], e2[k]} {
				if math.Float64bits(g) != math.Float64bits(want[d]) {
					t.Fatalf("trial %d: ExpEigen e%d[%d] = %#x, want %#x", trial, d, k, math.Float64bits(g), math.Float64bits(want[d]))
				}
			}
		}
	}
}

// TestSetParams: one install of both parameter sets leaves the bits of
// SetRates followed by SetFreqs, and a rejected set changes nothing.
func TestSetParams(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 200; trial++ {
		src := randomModel(r)
		freqs := src.Freqs
		freqs[trial%4] *= 1.5 // unnormalized
		a, b := JukesCantor(), JukesCantor()
		if err := a.SetParams(src.Rates, freqs); err != nil {
			t.Fatal(err)
		}
		if err := b.SetRates(src.Rates); err != nil {
			t.Fatal(err)
		}
		if err := b.SetFreqs(freqs); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(modelBits(a), modelBits(b)) {
			t.Fatalf("trial %d: SetParams %+v, SetRates+SetFreqs %+v", trial, *a, *b)
		}
	}
	m := randomModel(r)
	before := *m
	if err := m.SetParams([6]float64{1, 1, 0, 1, 1, 1}, m.Freqs); err == nil {
		t.Fatal("zero exchangeability accepted")
	}
	if err := m.SetParams(m.Rates, [4]float64{0.5, 0.5, 0, 0}); err == nil {
		t.Fatal("zero frequency accepted")
	}
	if !slices.Equal(modelBits(m), modelBits(&before)) {
		t.Fatal("a rejected SetParams changed the model")
	}
}

// modelBits lists the bits of every parameter and of the eigensystem.
func modelBits(m *Model) []uint64 {
	xs := append(append(m.Rates[:], m.Freqs[:]...), m.eig.Eval[:]...)
	for i := 0; i < 4; i++ {
		xs = append(append(xs, m.eig.Evec[i][:]...), m.eig.Inv[i][:]...)
	}
	bits := make([]uint64, len(xs))
	for i, x := range xs {
		bits[i] = math.Float64bits(x)
	}
	return bits
}

// clusterCAT is ClusterCATInto into a fresh treatment.
func clusterCAT(perPattern []float64, maxCats int) *RateCategories {
	rc := &RateCategories{}
	ClusterCATInto(rc, perPattern, maxCats)
	return rc
}
