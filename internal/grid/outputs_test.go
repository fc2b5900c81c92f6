package grid

import (
	"reflect"
	"testing"

	"raxml/internal/rapidbs"
	"raxml/internal/tree"
)

// TestResultOutputs pins the one rendering of a finished analysis that
// the CLI's RAxML_* files and the server's artifacts both write: which
// outputs exist, their order, both names and their bytes.
func TestResultOutputs(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	var reps []*rapidbs.Replicate
	for _, nw := range []string{"((a:0.1,b:0.2):0.05,c:0.3,d:0.4);", "((a:0.1,c:0.2):0.05,b:0.3,d:0.4);"} {
		tr, err := tree.ParseNewick(nw, names)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, &rapidbs.Replicate{Tree: tr})
	}
	var lines string
	for _, r := range reps {
		nw, err := tree.FormatNewick(r.Tree, nil)
		if err != nil {
			t.Fatal(err)
		}
		lines += nw + "\n"
	}
	best, annotated, cons := "((a,b),c,d);", "((a,b)50,c,d);", "((a,b),c,d);"
	for _, tc := range []struct {
		name string
		res  *Result
		want []Output
	}{
		{"empty", &Result{}, nil},
		{"starts only", &Result{Starts: make([]StartOutcome, 1), Best: StartOutcome{Newick: best}},
			[]Output{{"RAxML_bestTree", "bestTree", best + "\n"}}},
		{"full", &Result{Starts: make([]StartOutcome, 2), Best: StartOutcome{Newick: best}, BestAnnotated: annotated,
			Replicates: reps, ConsensusNewick: cons},
			[]Output{
				{"RAxML_bestTree", "bestTree", best + "\n"},
				{"RAxML_bipartitions", "bipartitions", annotated + "\n"},
				{"RAxML_bootstrap", "bootstrap", lines},
				{"RAxML_GreedyConsensusTree", "consensus", cons + "\n"},
			}},
		{"replicates only", &Result{Replicates: reps, ConsensusNewick: cons},
			[]Output{{"RAxML_bootstrap", "bootstrap", lines}, {"RAxML_GreedyConsensusTree", "consensus", cons + "\n"}}},
	} {
		got, err := tc.res.Outputs()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: outputs %q, want %q", tc.name, got, tc.want)
		}
	}
}
