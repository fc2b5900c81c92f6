package bootstop

import (
	"math"
	"testing"

	"raxml/internal/rng"
	"raxml/internal/tree"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "t" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	return out
}

func TestConvergedOnIdenticalTrees(t *testing.T) {
	// All replicates identical → support vectors of any two halves are
	// identical → distance 0 → converged.
	base := tree.Random(names(10), rng.New(3))
	var trees []*tree.Tree
	for i := 0; i < 20; i++ {
		trees = append(trees, base.Clone())
	}
	ok, dist, err := Converged(trees, DefaultCriterion(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !ok || dist > 1e-12 {
		t.Fatalf("identical replicates: converged=%v dist=%g", ok, dist)
	}
}

func TestNotConvergedOnRandomTrees(t *testing.T) {
	// Independent random topologies never stabilize: each split appears
	// once, so half-sample supports disagree.
	var trees []*tree.Tree
	for i := 0; i < 20; i++ {
		trees = append(trees, tree.Random(names(16), rng.New(int64(1000+i))))
	}
	ok, dist, err := Converged(trees, DefaultCriterion(), rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("random replicates reported converged (dist %g)", dist)
	}
}

func TestConvergedDistanceDecreasesWithAgreement(t *testing.T) {
	base := tree.Random(names(12), rng.New(4))
	mixed := func(nSame, nRand int) []*tree.Tree {
		var out []*tree.Tree
		for i := 0; i < nSame; i++ {
			out = append(out, base.Clone())
		}
		for i := 0; i < nRand; i++ {
			out = append(out, tree.Random(names(12), rng.New(int64(2000+i))))
		}
		return out
	}
	_, dHigh, err := Converged(mixed(18, 2), DefaultCriterion(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	_, dLow, err := Converged(mixed(4, 16), DefaultCriterion(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if dHigh >= dLow {
		t.Fatalf("more agreement should mean smaller distance: %g vs %g", dHigh, dLow)
	}
}

func TestConvergedTooFewTrees(t *testing.T) {
	ok, _, err := Converged([]*tree.Tree{tree.Random(names(6), rng.New(1))}, DefaultCriterion(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("a single replicate cannot be converged")
	}
}

// TestConvergedIsDeterministic pins the distance to its inputs: the same
// trees and the same test seed give the same float64, bit for bit, so a
// run's "wc" trace value and its -grid-bootstop verdict cannot depend on
// map iteration order.
func TestConvergedIsDeterministic(t *testing.T) {
	var trees []*tree.Tree
	for i := 0; i < 40; i++ {
		trees = append(trees, tree.Random(names(30), rng.New(int64(4000+i))))
	}
	seen := map[uint64]int{}
	for i := 0; i < 50; i++ {
		_, dist, err := Converged(trees, DefaultCriterion(), rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		seen[math.Float64bits(dist)]++
	}
	if len(seen) != 1 {
		t.Fatalf("50 calls on the same input returned %d distinct distances: %v", len(seen), seen)
	}
}

func BenchmarkConverged(b *testing.B) {
	var trees []*tree.Tree
	base := tree.Random(names(50), rng.New(2))
	for i := 0; i < 100; i++ {
		trees = append(trees, base.Clone())
	}
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Converged(trees, DefaultCriterion(), r); err != nil {
			b.Fatal(err)
		}
	}
}
