// Package gtr implements the General Time Reversible (GTR) nucleotide
// substitution model that underlies all likelihood computation in this
// reproduction, together with its rate-heterogeneity companions: the
// discrete Γ model (GTRGAMMA) and RAxML's per-site rate-category
// approximation (GTRCAT), the model the paper's benchmark runs use
// (-m GTRCAT).
//
// The GTR rate matrix Q is parameterized by six exchangeabilities
// (AC, AG, AT, CG, CT, GT; GT fixed to 1 by convention) and four base
// frequencies. Because Q is time reversible it can be symmetrized and
// diagonalized with a plain symmetric eigensolver; transition matrices
// are then P(t) = V diag(exp(λ_i t)) V⁻¹, computed per branch length and
// per rate category.
package gtr

import (
	"fmt"
	"math"
)

// Model is a GTR substitution model with precomputed eigensystem.
type Model struct {
	// Rates holds the six exchangeabilities in order AC, AG, AT, CG, CT,
	// GT. GT is conventionally fixed at 1.
	Rates [6]float64
	// Freqs holds the stationary base frequencies (A, C, G, T), summing
	// to 1.
	Freqs [4]float64

	// Eigensystem of the symmetrized, normalized rate matrix:
	// Q = diag(π)^-1/2 · S · diag(π)^1/2 with S symmetric.
	eig Eigensystem
}

// Eigensystem is the eigendecomposition of a model's Q that P(t) =
// Evec · diag(exp(Eval·t)) · Inv is computed from.
type Eigensystem struct {
	Eval [4]float64    // eigenvalues of Q (≤ 0, one zero)
	Evec [4][4]float64 // right eigenvectors of Q (columns)
	Inv  [4][4]float64 // inverse of Evec (rows)
}

// JukesCantor returns the equal-rates, equal-frequencies special case;
// handy as a numerically well-understood reference in tests.
func JukesCantor() *Model {
	m, err := New([6]float64{1, 1, 1, 1, 1, 1}, [4]float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		panic("gtr: Jukes-Cantor construction failed: " + err.Error())
	}
	return m
}

// Default returns a GTR model with RAxML's default initial parameters:
// all exchangeabilities 1 (i.e. starting from Jukes-Cantor) with
// empirical-ish unequal frequencies. Searches re-estimate from there.
func Default() *Model {
	m, err := New([6]float64{1, 1, 1, 1, 1, 1}, [4]float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		panic("gtr: default construction failed: " + err.Error())
	}
	return m
}

// New builds a GTR model from exchangeabilities and base frequencies and
// precomputes its eigensystem. The matrix is normalized so the expected
// substitution rate at stationarity is 1, making branch lengths expected
// substitutions per site (the standard calibration).
func New(rates [6]float64, freqs [4]float64) (*Model, error) {
	sum := 0.0
	for i, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("gtr: frequency %d = %g must be positive", i, f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("gtr: frequencies sum to %g, want 1", sum)
	}
	if err := checkRates(rates); err != nil {
		return nil, err
	}
	m := &Model{Rates: rates, Freqs: freqs}
	if err := m.decompose(); err != nil {
		return nil, err
	}
	return m, nil
}

// rateIndex maps the (i,j) state pair to the exchangeability index.
var rateIndex = [4][4]int{
	{-1, 0, 1, 2},
	{0, -1, 3, 4},
	{1, 3, -1, 5},
	{2, 4, 5, -1},
}

// Q returns the normalized instantaneous rate matrix.
func (m *Model) Q() [4][4]float64 {
	var q [4][4]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				q[i][j] = m.Rates[rateIndex[i][j]] * m.Freqs[j]
			}
		}
	}
	// rows sum to zero
	for i := 0; i < 4; i++ {
		d := 0.0
		for j := 0; j < 4; j++ {
			if j != i {
				d += q[i][j]
			}
		}
		q[i][i] = -d
	}
	// normalize expected rate to 1: rate = -Σ π_i q_ii
	rate := 0.0
	for i := 0; i < 4; i++ {
		rate -= m.Freqs[i] * q[i][i]
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			q[i][j] /= rate
		}
	}
	return q
}

// decompose computes the eigensystem via the symmetrization
// S = diag(√π) Q diag(1/√π), which is symmetric for reversible Q.
func (m *Model) decompose() error {
	q := m.Q()
	var sqrtPi, invSqrtPi [4]float64
	for i := 0; i < 4; i++ {
		sqrtPi[i] = math.Sqrt(m.Freqs[i])
		invSqrtPi[i] = 1 / sqrtPi[i]
	}
	var s [4][4]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			s[i][j] = sqrtPi[i] * q[i][j] * invSqrtPi[j]
		}
	}
	// enforce exact symmetry against rounding
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			avg := 0.5 * (s[i][j] + s[j][i])
			s[i][j], s[j][i] = avg, avg
		}
	}
	eval, evec, err := jacobiEigen(s)
	if err != nil {
		return err
	}
	m.eig.Eval = eval
	// Right eigenvectors of Q: diag(1/√π)·U; inverse: Uᵀ·diag(√π).
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.eig.Evec[i][j] = invSqrtPi[i] * evec[i][j]
			m.eig.Inv[j][i] = evec[i][j] * sqrtPi[i]
		}
	}
	return nil
}

// jacobiEigen diagonalizes a symmetric 4x4 matrix with cyclic Jacobi
// rotations. Returns eigenvalues and the orthogonal eigenvector matrix
// (columns are eigenvectors).
func jacobiEigen(a [4][4]float64) ([4]float64, [4][4]float64, error) {
	var v [4][4]float64
	for i := 0; i < 4; i++ {
		v[i][i] = 1
	}
	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-30 {
			var eval [4]float64
			for i := 0; i < 4; i++ {
				eval[i] = a[i][i]
			}
			return eval, v, nil
		}
		for p := 0; p < 3; p++ {
			for q := p + 1; q < 4; q++ {
				if math.Abs(a[p][q]) < 1e-300 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				tau := s / (1 + c)

				apq := a[p][q]
				app := a[p][p]
				aqq := a[q][q]
				a[p][p] = app - t*apq
				a[q][q] = aqq + t*apq
				a[p][q] = 0
				a[q][p] = 0
				for i := 0; i < 4; i++ {
					if i != p && i != q {
						aip := a[i][p]
						aiq := a[i][q]
						a[i][p] = aip - s*(aiq+tau*aip)
						a[p][i] = a[i][p]
						a[i][q] = aiq + s*(aip-tau*aiq)
						a[q][i] = a[i][q]
					}
					vip := v[i][p]
					viq := v[i][q]
					v[i][p] = vip - s*(viq+tau*vip)
					v[i][q] = viq + s*(vip-tau*viq)
				}
			}
		}
	}
	return [4]float64{}, [4][4]float64{}, fmt.Errorf("gtr: Jacobi iteration did not converge")
}

// P fills dst with the transition probability matrix P(t·rate) for branch
// length t scaled by a rate-category multiplier, in flat row-major form:
// dst[i*4+j] = P(j|i, t). A category's matrix is one contiguous 128-byte
// block (two cache lines). The likelihood kernels consume its transpose:
// the engine stores every matrix column-major (dst[j*4+i] = P(j|i, t)),
// so a matrix-vector product is four broadcast columns with no shuffle,
// and its transition-matrix block transposes what P writes
// (docs/kernels.md).
//
// P is the pinned reference of the kernels' transition-matrix block:
// entry (i, j) is ((0 + w_i0·Inv[0][j]) + w_i1·Inv[1][j]) + … with
// w_ik = Evec[i][k]·exp(Eval[k]·tt) rounded once and shared by the row,
// and every product converted explicitly, so no build may contract a
// product into the sum (FMA) and the AVX2 twin rounds the same way. The
// products are spelled out: the compiler keeps them in registers, which
// it does not for an inner k loop.
func (m *Model) P(t, rate float64, dst *[16]float64) {
	tt := t * rate
	if tt < 0 {
		tt = 0
	}
	e := &m.eig
	x0 := math.Exp(float64(e.Eval[0] * tt))
	x1 := math.Exp(float64(e.Eval[1] * tt))
	x2 := math.Exp(float64(e.Eval[2] * tt))
	x3 := math.Exp(float64(e.Eval[3] * tt))
	for i := 0; i < 4; i++ {
		ev := &e.Evec[i]
		w0, w1 := float64(ev[0]*x0), float64(ev[1]*x1)
		w2, w3 := float64(ev[2]*x2), float64(ev[3]*x3)
		row := (*[4]float64)(dst[i*4:])
		for j := 0; j < 4; j++ {
			sum := 0.0
			sum += float64(w0 * e.Inv[0][j])
			sum += float64(w1 * e.Inv[1][j])
			sum += float64(w2 * e.Inv[2][j])
			sum += float64(w3 * e.Inv[3][j])
			// clamp tiny negative rounding noise
			if sum < 0 {
				sum = 0
			}
			row[j] = sum
		}
	}
}

// PDeriv fills p, d1 and d2 with P(t·rate) and its first and second
// derivatives with respect to t, in the same flat row-major layout as P.
// The legacy full-matrix branch-length kernel consumes these, transposed
// into the engine's column layout.
func (m *Model) PDeriv(t, rate float64, p, d1, d2 *[16]float64) {
	tt := t * rate
	if tt < 0 {
		tt = 0
	}
	var expl, dexpl, ddexpl [4]float64
	for k := 0; k < 4; k++ {
		e := math.Exp(m.eig.Eval[k] * tt)
		expl[k] = e
		dexpl[k] = m.eig.Eval[k] * rate * e
		ddexpl[k] = m.eig.Eval[k] * rate * m.eig.Eval[k] * rate * e
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var s, s1, s2 float64
			for k := 0; k < 4; k++ {
				w := m.eig.Evec[i][k] * m.eig.Inv[k][j]
				s += w * expl[k]
				s1 += w * dexpl[k]
				s2 += w * ddexpl[k]
			}
			if s < 0 {
				s = 0
			}
			p[i*4+j] = s
			d1[i*4+j] = s1
			d2[i*4+j] = s2
		}
	}
}

// Eigensystem returns the model's eigensystem — the inputs of P, for
// kernels that fill P(t·r) for many categories at once. It is the
// model's own and read only: it changes with every SetRates, SetFreqs
// and SetParams.
func (m *Model) Eigensystem() *Eigensystem { return &m.eig }

// SumtableBasis returns the two eigen-projection matrices of the
// makenewz sumtable decomposition. Writing P(t·r) through the
// eigensystem, the per-category likelihood across a branch factors as
//
//	Σ_s π_s·a_s·(P(t·r)·b)_s  =  Σ_k exp(λ_k·t·r) · (aᵀ·left)_k · (right·b)_k
//
// for any endpoint CLVs a and b: left[s*4+k] = π_s·evec[s][k] is the
// π-weighted right-eigenvector matrix applied to the first endpoint,
// right[k*4+j] = (evec⁻¹)[k][j] applies to the second (both flat
// row-major, like P). The k-indexed products (aᵀ·left)_k·(right·b)_k
// are branch-length independent — they are the 4-entry sumtable the
// likelihood engine precomputes once per branch, after which every
// Newton iteration is a dot product against the ExpEigen factors
// instead of three 4×4 matrix products.
func (m *Model) SumtableBasis() (left, right [16]float64) {
	for s := 0; s < 4; s++ {
		for k := 0; k < 4; k++ {
			left[s*4+k] = m.Freqs[s] * m.eig.Evec[s][k]
			right[k*4+s] = m.eig.Inv[k][s]
		}
	}
	return left, right
}

// ExpEigen fills e0 with the eigen-basis exponential factors
// exp(λ_k·t·rate) of P(t·rate) and e1/e2 with their first and second
// derivatives with respect to t: e1[k] = λ_k·rate·e0[k] and
// e2[k] = (λ_k·rate)²·e0[k]. Together with SumtableBasis these are the
// diagonal form of PDeriv: d^n/dt^n Σ_s π_s·a_s·(P·b)_s =
// Σ_k en[k]·sumtable[k]. Negative t·rate is clamped to 0, matching P
// and PDeriv.
func (m *Model) ExpEigen(t, rate float64, e0, e1, e2 *[4]float64) {
	tt := t * rate
	if tt < 0 {
		tt = 0
	}
	for k := 0; k < 4; k++ {
		lr := float64(m.eig.Eval[k] * rate)
		ex := math.Exp(float64(m.eig.Eval[k] * tt))
		e0[k] = ex
		e1[k] = float64(lr * ex)
		e2[k] = float64(float64(lr*lr) * ex)
	}
}

// Clone returns an independent copy of the model.
func (m *Model) Clone() *Model {
	c := *m
	return &c
}

// SetRates re-parameterizes the exchangeabilities and recomputes the
// eigensystem; used by model optimization.
func (m *Model) SetRates(rates [6]float64) error {
	if err := checkRates(rates); err != nil {
		return err
	}
	m.Rates = rates
	return m.decompose()
}

// SetFreqs re-parameterizes base frequencies and recomputes the
// eigensystem.
func (m *Model) SetFreqs(freqs [4]float64) error {
	f, err := normalizeFreqs(freqs)
	if err != nil {
		return err
	}
	m.Freqs = f
	return m.decompose()
}

// SetParams installs exchangeabilities and base frequencies together and
// recomputes the eigensystem once: the model SetRates followed by
// SetFreqs leaves, bit for bit, at half the decompositions. Nothing
// changes when either parameter set is rejected.
func (m *Model) SetParams(rates [6]float64, freqs [4]float64) error {
	if err := checkRates(rates); err != nil {
		return err
	}
	f, err := normalizeFreqs(freqs)
	if err != nil {
		return err
	}
	m.Rates, m.Freqs = rates, f
	return m.decompose()
}

// checkRates rejects non-positive exchangeabilities.
func checkRates(rates [6]float64) error {
	for i, r := range rates {
		if r <= 0 {
			return fmt.Errorf("gtr: exchangeability %d = %g must be positive", i, r)
		}
	}
	return nil
}

// normalizeFreqs scales positive frequencies to sum to 1.
func normalizeFreqs(freqs [4]float64) ([4]float64, error) {
	sum := 0.0
	for _, f := range freqs {
		if f <= 0 {
			return freqs, fmt.Errorf("gtr: frequencies must be positive")
		}
		sum += f
	}
	for i := range freqs {
		freqs[i] /= sum
	}
	return freqs, nil
}

// EmpiricalFreqs estimates base frequencies from per-state counts,
// with add-one smoothing to keep them strictly positive.
func EmpiricalFreqs(counts [4]float64) [4]float64 {
	var f [4]float64
	total := 0.0
	for i := range counts {
		f[i] = counts[i] + 1
		total += f[i]
	}
	for i := range f {
		f[i] /= total
	}
	return f
}
