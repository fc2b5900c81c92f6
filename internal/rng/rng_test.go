package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestReproducibleStream(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: streams diverged: %d != %d", i, av, bv)
		}
	}
}

func TestSeedZeroUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		v := r.Uint64()
		if seen[v] {
			t.Fatalf("value %d repeated within 100 draws from seed 0", v)
		}
		seen[v] = true
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws from different seeds", same)
	}
}

func TestRankSeeding(t *testing.T) {
	if got := Offset(12345, 0); got != 12345 {
		t.Errorf("rank 0 seed = %d, want unchanged 12345", got)
	}
	if got := Offset(12345, 3); got != 12345+30000 {
		t.Errorf("rank 3 seed = %d, want %d", got, 12345+30000)
	}
	// Adjacent rank streams must be decorrelated despite the small,
	// constant seed stride the paper prescribes.
	r0 := ForRank(12345, 0)
	r1 := ForRank(12345, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if r0.Uint64() == r1.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("rank 0 and rank 1 streams collide %d/1000 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bin %d: count %d too far from expected %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of Float64 = %g, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64() = %g negative", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %g, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPermUnbiasedFirstElement(t *testing.T) {
	r := New(17)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("P(first=%d): count %d too far from %.0f", i, c, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1846)
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(987)
	for i := 0; i < 5; i++ {
		r.Uint64()
	}
	s := r.State()
	var want [8]uint64
	for i := range want {
		want[i] = r.Uint64()
	}
	// A fresh generator restored to the captured state replays the
	// exact remainder of the stream.
	fresh := New(0)
	fresh.SetState(s)
	for i, w := range want {
		if got := fresh.Uint64(); got != w {
			t.Fatalf("draw %d after restore: %#x, want %#x", i, got, w)
		}
	}
	// Zero state is remapped, never absorbing.
	fresh.SetState(0)
	if fresh.Uint64() == 0 && fresh.Uint64() == 0 {
		t.Fatal("zero state wedged the generator")
	}
}
