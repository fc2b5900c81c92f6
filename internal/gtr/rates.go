package gtr

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the two rate-heterogeneity treatments RAxML
// offers and the paper's runs rely on:
//
//   - GTRGAMMA: 4 discrete Γ rate categories with equal probabilities
//     (Yang 1994, median/mean variant using mean of quantile intervals).
//   - GTRCAT: per-site rate categories — every site gets an individually
//     estimated rate, clustered into a bounded number of categories.
//     This is RAxML's fast approximation; the paper's benchmark command
//     line is -m GTRCAT.

// GammaCategories returns the k category rate multipliers of a discrete
// Γ(alpha, alpha) distribution (mean 1) using the mean-of-interval
// discretization of Yang (1994).
func GammaCategories(alpha float64, k int) ([]float64, error) {
	if alpha <= 0 {
		return nil, fmt.Errorf("gtr: alpha %g must be positive", alpha)
	}
	if k < 1 {
		return nil, fmt.Errorf("gtr: need at least 1 category, got %d", k)
	}
	rates := make([]float64, k)
	if k == 1 {
		rates[0] = 1
		return rates, nil
	}
	// Quantile boundaries of Γ(alpha, beta=alpha): chi2 inverse scaled.
	bounds := make([]float64, k+1)
	bounds[0] = 0
	bounds[k] = math.Inf(1)
	for i := 1; i < k; i++ {
		bounds[i] = gammaQuantile(float64(i)/float64(k), alpha, alpha)
	}
	// Mean of Γ(alpha,alpha) within [a,b) is
	//   [Γinc(alpha+1, b·alpha... ] — computed via the regularized lower
	// incomplete gamma I(x; a):  E[X · 1{X<q}] = I(q·beta; alpha+1)·alpha/beta.
	// With beta = alpha the distribution mean is 1.
	cum := make([]float64, k+1)
	cum[0] = 0
	cum[k] = 1
	for i := 1; i < k; i++ {
		cum[i] = regIncGamma(alpha+1, bounds[i]*alpha)
	}
	for i := 0; i < k; i++ {
		rates[i] = (cum[i+1] - cum[i]) * float64(k)
	}
	// normalize the tiny residual so the mean is exactly 1
	mean := 0.0
	for _, r := range rates {
		mean += r
	}
	mean /= float64(k)
	for i := range rates {
		rates[i] /= mean
	}
	return rates, nil
}

// gammaQuantile inverts the Γ(shape, rate) CDF by bisection on the
// regularized incomplete gamma function. Accurate to ~1e-10, plenty for
// 4-category discretization.
func gammaQuantile(p, shape, rate float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	lo, hi := 0.0, 1.0
	for regIncGamma(shape, hi*rate) < p {
		hi *= 2
		if hi > 1e10 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if regIncGamma(shape, mid*rate) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return 0.5 * (lo + hi)
}

// regIncGamma computes the regularized lower incomplete gamma function
// P(a, x) via series (x < a+1) or continued fraction (x >= a+1),
// following Numerical Recipes.
func regIncGamma(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	lgA, _ := math.Lgamma(a)
	if x < a+1 {
		// series representation
		ap := a
		sum := 1 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lgA)
	}
	// continued fraction for Q(a,x), P = 1-Q
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lgA) * h
	return 1 - q
}

// RateCategories describes the rate-heterogeneity treatment attached to a
// likelihood evaluation: a fixed set of category rates with either equal
// probabilities (GAMMA) or per-pattern category assignment (CAT).
type RateCategories struct {
	// Rates holds the category rate multipliers.
	Rates []float64
	// Probs holds the category probabilities for GAMMA-style mixing;
	// nil for CAT (where each pattern belongs to exactly one category).
	Probs []float64
	// PatternCategory maps pattern index → category index for CAT mode;
	// nil for GAMMA mode.
	PatternCategory []int
}

// NewGamma returns a GAMMA treatment with k categories and shape alpha.
func NewGamma(alpha float64, k int) (*RateCategories, error) {
	rates, err := GammaCategories(alpha, k)
	if err != nil {
		return nil, err
	}
	probs := make([]float64, k)
	for i := range probs {
		probs[i] = 1 / float64(k)
	}
	return &RateCategories{Rates: rates, Probs: probs}, nil
}

// NewUniform returns the trivial single-category treatment (no rate
// heterogeneity).
func NewUniform(nPatterns int) *RateCategories {
	rc := &RateCategories{
		Rates:           []float64{1},
		PatternCategory: make([]int, nPatterns),
	}
	return rc
}

// IsCAT reports whether the treatment assigns one category per pattern.
func (rc *RateCategories) IsCAT() bool { return rc.PatternCategory != nil }

// NumCats returns the number of categories.
func (rc *RateCategories) NumCats() int { return len(rc.Rates) }

// Clone returns a deep copy.
func (rc *RateCategories) Clone() *RateCategories {
	c := &RateCategories{Rates: append([]float64(nil), rc.Rates...)}
	if rc.Probs != nil {
		c.Probs = append([]float64(nil), rc.Probs...)
	}
	if rc.PatternCategory != nil {
		c.PatternCategory = append([]int(nil), rc.PatternCategory...)
	}
	return c
}

// ClusterCATInto builds a CAT treatment from per-pattern rates into rc:
// rates are clustered into at most maxCats categories on a log-spaced
// grid and each pattern is assigned its nearest category, mirroring
// RAxML's categorization of individually optimized per-site rates
// (default 25 categories). It reuses the backing arrays of rc.Rates and
// rc.PatternCategory: once they have held a treatment of as many
// patterns and categories, it allocates nothing.
func ClusterCATInto(rc *RateCategories, perPattern []float64, maxCats int) {
	n := len(perPattern)
	rc.Probs = nil
	if rc.PatternCategory == nil || cap(rc.PatternCategory) < n {
		rc.PatternCategory = make([]int, n)
	}
	assign := rc.PatternCategory[:n]
	rc.PatternCategory = assign
	if n == 0 || maxCats < 1 {
		clear(assign)
		rc.Rates = append(rc.Rates[:0], 1)
		return
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range perPattern {
		r = clampCAT(r)
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi/lo < 1.0001 || maxCats == 1 {
		// effectively homogeneous
		sum := 0.0
		for _, r := range perPattern {
			sum += clampCAT(r)
		}
		clear(assign)
		rc.Rates = append(rc.Rates[:0], sum/float64(n))
		rc.normalizeCAT(nil)
		return
	}
	k := maxCats
	// log-spaced centers between lo and hi, held as their logarithms in
	// rc.Rates until the means below replace them
	logLo, logHi := math.Log(lo), math.Log(hi)
	logC := rc.Rates[:0]
	for c := 0; c < k; c++ {
		frac := float64(c) / float64(k-1)
		logC = append(logC, math.Log(math.Exp(logLo+frac*(logHi-logLo))))
	}
	for i, r := range perPattern {
		// nearest center in log space; centers are sorted so binary search
		lr := math.Log(clampCAT(r))
		j := sort.Search(k, func(c int) bool { return logC[c] >= lr })
		best := j
		if j >= k {
			best = k - 1
		}
		if j > 0 {
			if best >= k || math.Abs(logC[j-1]-lr) <= math.Abs(logC[best]-lr) {
				best = j - 1
			}
		}
		assign[i] = best
	}
	// Replace each center with the mean of its members and drop empty
	// categories. Category c sums its members in pattern order and
	// relabels them with its final index, which is at most c, so no later
	// category counts them again.
	rates := logC[:0]
	for c := 0; c < k; c++ {
		sum, count, idx := 0.0, 0, len(rates)
		for i, a := range assign {
			if a == c {
				sum += clampCAT(perPattern[i])
				count++
				assign[i] = idx
			}
		}
		if count > 0 {
			rates = append(rates, sum/float64(count))
		}
	}
	rc.Rates = rates
}

// clampCAT bounds a per-site rate to [MinCATRate, MaxCATRate].
func clampCAT(r float64) float64 {
	if r < MinCATRate {
		r = MinCATRate
	}
	if r > MaxCATRate {
		r = MaxCATRate
	}
	return r
}

// MinCATRate and MaxCATRate bound per-site rates, as in RAxML.
const (
	MinCATRate = 1e-3
	MaxCATRate = 50.0
)

// normalizeCAT rescales CAT rates so the weighted mean rate is 1
// (weights = pattern weights; nil weights = unweighted mean), keeping
// branch lengths interpretable as expected substitutions per site.
func (rc *RateCategories) normalizeCAT(weights []int) {
	if !rc.IsCAT() {
		return
	}
	var num, den float64
	for p, c := range rc.PatternCategory {
		w := 1.0
		if weights != nil {
			w = float64(weights[p])
		}
		num += w * rc.Rates[c]
		den += w
	}
	if den == 0 || num == 0 {
		return
	}
	mean := num / den
	for i := range rc.Rates {
		rc.Rates[i] /= mean
	}
}

// Normalize makes the weighted mean CAT rate 1; exported wrapper.
func (rc *RateCategories) Normalize(weights []int) { rc.normalizeCAT(weights) }
