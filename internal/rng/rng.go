// Package rng provides the deterministic pseudo-random number generation
// used throughout the reproduction.
//
// RAxML derives all stochastic decisions (starting-tree insertion orders,
// bootstrap column resampling, subtree selection) from explicit integer
// seeds passed on the command line (-p, -x, -b). The hybrid MPI code of
// Pfeiffer & Stamatakis keeps runs reproducible for a fixed process count
// by seeding rank r with  seed + 10000*r  (Section 2.4 of the paper).
// This package reproduces that scheme: see Offset and ForRank.
//
// The generator is a 64-bit SplitMix64-seeded xorshift* generator. It is
// deliberately not math/rand: we need a self-contained, stable stream whose
// values never change across Go releases, because golden tests and the
// paper-reproduction harness depend on exact sequences.
package rng

import "math"

// RankStride is the seed offset between consecutive ranks, matching the
// constant increment ("multiples of 10,000") described in Section 2.4.
const RankStride = 10000

// RNG is a deterministic 64-bit pseudo-random number generator.
// The zero value is not usable; construct with New.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical streams.
func New(seed int64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// ForRank returns a generator for the given MPI-style rank, seeded with
// base + RankStride*rank exactly as the hybrid RAxML code seeds each
// process. Rank 0 uses the user-specified seed unchanged.
func ForRank(base int64, rank int) *RNG {
	return New(Offset(base, rank))
}

// Offset returns the seed that ForRank would use for the given rank.
func Offset(base int64, rank int) int64 {
	return base + int64(RankStride)*int64(rank)
}

// Seed resets the generator state from seed. A zero seed is remapped so
// the xorshift state never becomes the absorbing all-zero state.
func (r *RNG) Seed(seed int64) {
	z := uint64(seed)
	// SplitMix64 scrambling: decorrelates nearby seeds (consecutive rank
	// seeds differ by exactly 10000) into statistically independent states.
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	r.state = z
}

// State returns the generator's raw internal state, for checkpointing a
// stream mid-run. SetState with the returned value resumes the stream at
// exactly the draw after the State call.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state previously captured with State. A zero state
// (never produced by Seed or Uint64) is remapped like a zero seed so the
// generator cannot be wedged into the absorbing all-zero state.
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	r.state = s
}

// Uint64 returns the next 64 pseudo-random bits (xorshift64*).
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Rejection sampling removes modulo bias; the loop terminates quickly
	// because the rejection region is < n out of 2^64 values.
	max := uint64(n)
	limit := (math.MaxUint64 / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Float64 returns a uniform pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits → [0,1) with full double precision.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
