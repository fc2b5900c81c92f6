package bootstop

import (
	"fmt"
	"sync"
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

func TestTableCountsSplits(t *testing.T) {
	tr := tree.Random(names(10), rng.New(1))
	table := NewTable(10)
	if err := table.AddTree(tr); err != nil {
		t.Fatal(err)
	}
	if got, want := table.Len(), 10-3; got != want {
		t.Fatalf("table has %d splits, want %d", got, want)
	}
	for _, bp := range tr.Bipartitions() {
		if c := table.Count(bp); c != 1 {
			t.Fatalf("split count %d, want 1", c)
		}
	}
	// Add the same tree again: counts double.
	if err := table.AddTree(tr.Clone()); err != nil {
		t.Fatal(err)
	}
	for _, bp := range tr.Bipartitions() {
		if c := table.Count(bp); c != 2 {
			t.Fatalf("split count %d after second insert, want 2", c)
		}
	}
}

func TestTableRejectsWrongTaxa(t *testing.T) {
	table := NewTable(10)
	if err := table.AddTree(tree.Random(names(8), rng.New(1))); err == nil {
		t.Fatal("accepted tree over wrong taxon count")
	}
}

func TestTableConcurrentInserts(t *testing.T) {
	// Hammer the table from many goroutines; counts must be exact.
	base := tree.Random(names(12), rng.New(2))
	table := NewTable(12)
	const goroutines, perG = 16, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := table.AddTree(base); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := goroutines * perG
	for _, bp := range base.Bipartitions() {
		if c := table.Count(bp); c != want {
			t.Fatalf("split count %d, want %d (lost updates)", c, want)
		}
	}
}

func TestAddTreesBatch(t *testing.T) {
	table := NewTable(9)
	var trees []*tree.Tree
	for i := 0; i < 20; i++ {
		trees = append(trees, tree.Random(names(9), rng.New(int64(i))))
	}
	if err := table.AddTrees(trees); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range table.shards {
		for _, v := range table.shards[i].counts {
			total += v
		}
	}
	if want := 20 * (9 - 3); total != want {
		t.Fatalf("total split insertions %d, want %d", total, want)
	}
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

func TestRunnerStopsEarlyOnStableData(t *testing.T) {
	base := tree.Random(names(10), rng.New(5))
	calls := 0
	gen := func(count int) ([]*tree.Tree, error) {
		calls++
		out := make([]*tree.Tree, count)
		for i := range out {
			out[i] = base.Clone()
		}
		return out, nil
	}
	r := Runner{BatchSize: 10, MaxReplicates: 1000, Criterion: DefaultCriterion()}
	trees, batches, err := r.Run(gen, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if batches != 1 || len(trees) != 10 {
		t.Fatalf("stable data: %d batches, %d trees; want 1 batch of 10", batches, len(trees))
	}
	if calls != 1 {
		t.Fatalf("generator called %d times, want 1", calls)
	}
}

func TestRunnerHitsCapOnUnstableData(t *testing.T) {
	i := 0
	gen := func(count int) ([]*tree.Tree, error) {
		out := make([]*tree.Tree, count)
		for j := range out {
			out[j] = tree.Random(names(14), rng.New(int64(3000+i)))
			i++
		}
		return out, nil
	}
	r := Runner{BatchSize: 10, MaxReplicates: 30, Criterion: DefaultCriterion()}
	trees, batches, err := r.Run(gen, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 30 {
		t.Fatalf("%d trees, want the 30-replicate cap", len(trees))
	}
	if batches != 3 {
		t.Fatalf("%d batches, want 3", batches)
	}
}

func TestRunnerPropagatesGeneratorError(t *testing.T) {
	r := Runner{BatchSize: 50, MaxReplicates: 1000, Criterion: DefaultCriterion()}
	_, _, err := r.Run(func(int) ([]*tree.Tree, error) {
		return nil, fmt.Errorf("boom")
	}, rng.New(1))
	if err == nil {
		t.Fatal("generator error swallowed")
	}
}

func BenchmarkTableAddTree(b *testing.B) {
	tr := tree.Random(names(218), rng.New(1))
	table := NewTable(218)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := table.AddTree(tr); err != nil {
			b.Fatal(err)
		}
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
