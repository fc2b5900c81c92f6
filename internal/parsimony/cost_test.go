package parsimony

import (
	"testing"

	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/seqgen"
	"raxml/internal/threads"
)

// TestCostTableDecisions pins what the committed cost table decides for
// the parsimony job on the inputs of the repository benchmark's -T
// workloads (likelihood's crossoverShapes), without timing: the fold
// behind Score on a whole tree, and a stepwise-addition step of one
// taxon against every edge of a tree of half the taxa and of all but
// one, each as JobWork states it, published to a hot crew or to a
// parked one. A refit of the table moves these rows with its sweep.
func TestCostTableDecisions(t *testing.T) {
	type verdict struct{ hot, parked bool }
	want := map[string]verdict{
		"wide/insert_half":   {true, false},
		"wide/insert_last":   {true, false},
		"wide/score":         {true, false},
		"narrow/insert_half": {true, false},
		"narrow/insert_last": {true, false},
		"narrow/score":       {true, false},
	}
	for _, sh := range []struct {
		name        string
		taxa, chars int
	}{{"wide", 20, 3000}, {"narrow", 50, 300}} {
		a, _, err := seqgen.Generate(seqgen.Config{Taxa: sh.taxa, Chars: sh.chars, Seed: 1, TreeScale: 0.5, Alpha: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		pat, err := msa.Compress(a)
		if err != nil {
			t.Fatal(err)
		}
		pool := threads.NewPool(2, pat.NumPatterns())
		defer pool.Close()
		e := New(pat, pool)
		r := rng.New(3)
		order := r.Perm(sh.taxa)
		check := func(job string) {
			t.Helper()
			w := e.JobWork(threads.JobParsimony)
			got := verdict{pool.Gain(w, false) > 0, pool.Gain(w, true) > 0}
			if w, ok := want[sh.name+"/"+job]; !ok || got != w {
				t.Errorf("%s/%s: published hot %v, parked %v; want %+v", sh.name, job, got.hot, got.parked, w)
			}
		}
		for _, k := range []int{sh.taxa / 2, sh.taxa - 1} {
			e.insertionScores(partialTree(pat.Names, order[:k], r), order[k])
			check(map[bool]string{true: "insert_half", false: "insert_last"}[k == sh.taxa/2])
		}
		e.Score(partialTree(pat.Names, order, r))
		check("score")
	}
}
