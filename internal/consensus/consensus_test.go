package consensus

import (
	"strings"
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

func TestCountSplits(t *testing.T) {
	base := tree.Random(names(8), rng.New(1))
	counts, n, err := CountSplits([]*tree.Tree{base, base.Clone(), base.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("n = %d, want 8", n)
	}
	if len(counts) != 8-3 {
		t.Fatalf("%d distinct splits, want %d", len(counts), 8-3)
	}
	for _, s := range counts {
		if s.Count != 3 || s.Frequency != 1 {
			t.Fatalf("split count %d freq %g, want 3 and 1", s.Count, s.Frequency)
		}
	}
}

func TestCountSplitsErrors(t *testing.T) {
	if _, _, err := CountSplits(nil); err == nil {
		t.Error("accepted empty tree set")
	}
	a := tree.Random(names(6), rng.New(1))
	b := tree.Random(names(7), rng.New(1))
	if _, _, err := CountSplits([]*tree.Tree{a, b}); err == nil {
		t.Error("accepted mismatched taxon sets")
	}
}

func TestCompatible(t *testing.T) {
	mk := func(taxa ...int) Split {
		bits := make([]uint64, 1)
		for _, x := range taxa {
			bits[0] |= 1 << uint(x)
		}
		return Split{Bits: bits}
	}
	if !Compatible(mk(1, 2), mk(3, 4)) {
		t.Error("disjoint splits should be compatible")
	}
	if !Compatible(mk(1, 2), mk(1, 2, 3)) {
		t.Error("nested splits should be compatible")
	}
	if Compatible(mk(1, 2), mk(2, 3)) {
		t.Error("overlapping non-nested splits should be incompatible")
	}
}

func TestMajorityIdenticalTrees(t *testing.T) {
	base := tree.Random(names(10), rng.New(2))
	var trees []*tree.Tree
	for i := 0; i < 5; i++ {
		trees = append(trees, base.Clone())
	}
	cons, err := Majority(trees, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Fully resolved: n-3 internal splits, all with 100% support.
	if got := cons.NumInternalSplits(); got != 10-3 {
		t.Fatalf("%d internal splits, want %d", got, 10-3)
	}
	nw := cons.Newick()
	if !strings.Contains(nw, ")100") {
		t.Fatalf("expected 100%% support labels in %s", nw)
	}
	// Consensus of identical trees equals the input topology: parse the
	// newick (fully resolved, binary) and compare by RF.
	parsed, err := tree.ParseNewick(nw, base.TaxonNames)
	if err != nil {
		t.Fatalf("consensus newick unparseable (%v): %s", err, nw)
	}
	if d, _ := tree.RobinsonFoulds(parsed, base); d != 0 {
		t.Fatalf("consensus differs from unanimous input (RF=%d)", d)
	}
}

func TestMajorityConflictCollapses(t *testing.T) {
	// Two topologies in equal proportion: conflicting splits are not in
	// a strict majority, so the consensus must collapse them.
	a := tree.Caterpillar(names(8))
	b := tree.Balanced(names(8))
	trees := []*tree.Tree{a, a.Clone(), b, b.Clone()}
	cons, err := Majority(trees, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := tree.RobinsonFoulds(a, b)
	if da == 0 {
		t.Skip("topologies coincide")
	}
	if cons.NumInternalSplits() >= 8-3 {
		t.Fatalf("conflicted consensus fully resolved (%d splits)", cons.NumInternalSplits())
	}
}

func TestMajorityThresholdBelowHalfRejected(t *testing.T) {
	base := tree.Random(names(6), rng.New(3))
	if _, err := Majority([]*tree.Tree{base}, 0.3); err == nil {
		t.Error("threshold below 0.5 accepted by Majority")
	}
}

func TestGreedyResolvesAtLeastMajority(t *testing.T) {
	r := rng.New(4)
	base := tree.Random(names(10), r)
	trees := []*tree.Tree{base.Clone(), base.Clone()}
	for i := 0; i < 3; i++ {
		trees = append(trees, tree.Random(names(10), r))
	}
	maj, err := Majority(trees, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Greedy(trees)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.NumInternalSplits() < maj.NumInternalSplits() {
		t.Fatalf("greedy (%d splits) less resolved than majority (%d)",
			greedy.NumInternalSplits(), maj.NumInternalSplits())
	}
}

func TestConsensusContainsAllTaxa(t *testing.T) {
	r := rng.New(5)
	var trees []*tree.Tree
	for i := 0; i < 6; i++ {
		trees = append(trees, tree.Random(names(9), r))
	}
	cons, err := Greedy(trees)
	if err != nil {
		t.Fatal(err)
	}
	for taxon := 0; taxon < 9; taxon++ {
		if !containsTaxon(cons.Root, taxon) {
			t.Fatalf("taxon %d missing from consensus", taxon)
		}
	}
	nw := cons.Newick()
	for _, name := range names(9) {
		if !strings.Contains(nw, name) {
			t.Fatalf("taxon %s missing from newick %s", name, nw)
		}
	}
}

func TestConsensusNestedClusters(t *testing.T) {
	// All trees share a caterpillar backbone: nested clusters
	// {7,8}, {6,7,8}, {5,6,7,8}, ... must assemble into a chain.
	base := tree.Caterpillar(names(9))
	trees := []*tree.Tree{base.Clone(), base.Clone(), base.Clone()}
	cons, err := Majority(trees, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := cons.NumInternalSplits(); got != 9-3 {
		t.Fatalf("%d internal splits, want %d", got, 9-3)
	}
	parsed, err := tree.ParseNewick(cons.Newick(), base.TaxonNames)
	if err != nil {
		t.Fatalf("nested consensus unparseable: %v\n%s", err, cons.Newick())
	}
	if d, _ := tree.RobinsonFoulds(parsed, base); d != 0 {
		t.Fatalf("nested consensus wrong (RF=%d): %s", d, cons.Newick())
	}
}

func TestMajorityHalfSupportNotIncluded(t *testing.T) {
	// A split at exactly 50% is NOT a strict majority.
	a := tree.Caterpillar(names(6))
	b := tree.Balanced(names(6))
	if d, _ := tree.RobinsonFoulds(a, b); d == 0 {
		t.Skip("topologies coincide")
	}
	cons, err := Majority([]*tree.Tree{a, b}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	counts, _, _ := CountSplits([]*tree.Tree{a, b})
	shared := 0
	for _, s := range counts {
		if s.Count == 2 {
			shared++
		}
	}
	if cons.NumInternalSplits() != shared {
		t.Fatalf("consensus has %d splits, want only the %d unanimous ones",
			cons.NumInternalSplits(), shared)
	}
}

// containsTaxon reports whether the node's subtree contains the taxon.
func containsTaxon(n *Node, taxon int) bool {
	if n.Taxon == taxon {
		return true
	}
	for _, c := range n.Children {
		if containsTaxon(c, taxon) {
			return true
		}
	}
	return false
}
