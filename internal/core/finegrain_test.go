package core

import (
	"math"
	"testing"

	"raxml/internal/fabric"
	"raxml/internal/finegrain"
	"raxml/internal/msa"
	"raxml/internal/seqgen"
	"raxml/internal/tree"
)

// serveLinks starts n in-proc fine-grain workers and returns the master
// ends of their links, which the test's cleanup closes; every worker
// must then end cleanly.
func serveLinks(t *testing.T, n int) []fabric.Link {
	t.Helper()
	links := make([]fabric.Link, n)
	served := make(chan error, n)
	for i := range links {
		m, w := fabric.LinkPair()
		links[i] = m
		go func() { served <- finegrain.ServeSessions(w) }()
	}
	t.Cleanup(func() {
		for _, l := range links {
			l.Close()
		}
		for range links {
			if err := <-served; err != nil {
				t.Errorf("worker exit: %v", err)
			}
		}
	})
	return links
}

// TestEvaluateTreeFineMatchesSingleProcess runs the -f e recipe over a
// 2-rank x 2-thread distributed engine and over the plain in-process
// engine: the same deterministic optimization program on the same
// data, so the endpoints agree to optimizer precision.
func TestEvaluateTreeFineMatchesSingleProcess(t *testing.T) {
	a, truth, err := seqgen.Generate(seqgen.Config{Taxa: 10, Chars: 800, Seed: 5, TreeScale: 0.5, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 2, Ranks: 2, Model: GTRCAT, EmpiricalFreqs: true}

	ref, err := EvaluateTree(pat, truth, Options{Workers: 1, Model: GTRCAT, EmpiricalFreqs: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateTree(pat, truth, opts, serveLinks(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(res.LogLikelihood - ref.LogLikelihood); d > 1e-4*math.Abs(ref.LogLikelihood) {
		t.Fatalf("fine %.9f vs single-process %.9f (diff %g)", res.LogLikelihood, ref.LogLikelihood, d)
	}
	if res.Tree.NumTaxa() != pat.NumTaxa() {
		t.Fatalf("result tree has %d taxa", res.Tree.NumTaxa())
	}
}

// TestFineDeadRankIsAnError: a -fine run whose rank 2 dies between two
// dispatches — its link severs after the init frame and one job's round
// trip, as a killed process's socket does — returns an error naming the
// dead rank instead of panicking out through the Dispatcher contract,
// and the surviving worker is released and ends cleanly.
func TestFineDeadRankIsAnError(t *testing.T) {
	a, truth, err := seqgen.Generate(seqgen.Config{Taxa: 10, Chars: 600, Seed: 3, TreeScale: 0.5, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	links := serveLinks(t, 2)
	rank2 := fabric.InjectFaults(links[1], &fabric.FaultPlan{SeverAfter: 4})
	opts := Options{Workers: 1, Ranks: 3, Model: GTRCAT, EmpiricalFreqs: true}
	_, err = EvaluateTree(pat, truth, opts, []fabric.Link{links[0], rank2})
	if dead := fabric.AsRankDead(err); dead == nil || dead.Rank != 2 {
		t.Fatalf("EvaluateTree over a dead rank returned %v, want a RankDeadError for rank 2", err)
	}
	if got := rank2.InjectStats().Count(fabric.FaultSever); got != 1 {
		t.Fatalf("rank 2's link severed %d times, want once mid-run", got)
	}
}

// TestRunFineSearchesDistributed runs a full ML search over the
// distributed grid — SPR scans, branch and model optimization all
// crossing the wire — and checks the result is a sane tree.
func TestRunFineSearchesDistributed(t *testing.T) {
	a, truth, err := seqgen.Generate(seqgen.Config{Taxa: 10, Chars: 1000, Seed: 9, TreeScale: 0.4, Alpha: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 2, Ranks: 2, Model: GTRCAT, EmpiricalFreqs: true, SeedParsimony: 7}
	res, err := RunMultiSearch(pat, 1, opts, serveLinks(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 1 {
		t.Fatalf("%d outcomes, want 1", len(res.All))
	}
	if res.Best.LogLikelihood >= 0 || math.IsInf(res.Best.LogLikelihood, 0) || math.IsNaN(res.Best.LogLikelihood) {
		t.Fatalf("implausible best lnL %v", res.Best.LogLikelihood)
	}
	d, err := tree.RobinsonFoulds(res.BestTree, truth)
	if err != nil {
		t.Fatal(err)
	}
	if max := tree.MaxRFDistance(10); d > max/2 {
		t.Fatalf("distributed search ended RF=%d from truth (max %d)", d, max)
	}
}
