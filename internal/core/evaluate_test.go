package core

import (
	"math"
	"testing"

	"raxml/internal/rng"
	"raxml/internal/tree"
)

func TestEvaluateTreeImprovesBranchLengths(t *testing.T) {
	pat := testPatterns(t, 10, 400, 51)
	// A random topology with arbitrary branch lengths.
	start := tree.Random(pat.Names, rng.New(3))
	res, err := EvaluateTree(pat, start, Options{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogLikelihood >= 0 || math.IsNaN(res.LogLikelihood) {
		t.Fatalf("evaluated lnL %v", res.LogLikelihood)
	}
	// Topology unchanged.
	d, err := tree.RobinsonFoulds(res.Tree, start)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("EvaluateTree changed the topology (RF=%d)", d)
	}
	if res.TreeLength <= 0 {
		t.Fatalf("tree length %v", res.TreeLength)
	}
	if res.Elapsed <= 0 {
		t.Fatal("zero elapsed")
	}
}

func TestEvaluateTreeBetterThanUnoptimized(t *testing.T) {
	pat := testPatterns(t, 8, 300, 52)
	start := tree.Caterpillar(pat.Names)
	res, err := EvaluateTree(pat, start, Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the same topology with default branch lengths on a fresh
	// engine: optimization must not be worse.
	res2, err := EvaluateTree(pat, res.Tree, Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.LogLikelihood < res.LogLikelihood-0.1 {
		t.Fatalf("re-evaluation much worse: %.4f vs %.4f", res2.LogLikelihood, res.LogLikelihood)
	}
}

func TestEvaluateTreeRejectsWrongTaxa(t *testing.T) {
	pat := testPatterns(t, 8, 100, 53)
	other := tree.Caterpillar([]string{"a", "b", "c", "d"})
	if _, err := EvaluateTree(pat, other, Options{}, nil); err == nil {
		t.Fatal("accepted tree over wrong taxon set")
	}
}
