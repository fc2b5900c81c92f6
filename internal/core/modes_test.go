package core

import (
	"math"
	"testing"

	"raxml/internal/search"
	"raxml/internal/tree"
)

func TestMultiSearchSerial(t *testing.T) {
	pat := testPatterns(t, 10, 300, 31)
	opts := quickOpts(1, 1, 4)
	res, err := RunMultiSearch(pat, 4, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 4 {
		t.Fatalf("%d outcomes, want 4", len(res.All))
	}
	for _, o := range res.All {
		if o.LogLikelihood >= 0 || math.IsNaN(o.LogLikelihood) {
			t.Fatalf("outcome lnL %v", o.LogLikelihood)
		}
		if o.Newick == "" {
			t.Fatal("empty newick")
		}
	}
	if err := res.BestTree.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, o := range res.All {
		if o.LogLikelihood > res.Best.LogLikelihood {
			t.Fatal("Best is not the maximum outcome")
		}
	}
}

func TestMultiSearchHybridOvershoot(t *testing.T) {
	// 5 searches over 3 ranks → ceil(5/3)=2 per rank → 6 total.
	pat := testPatterns(t, 8, 200, 32)
	res, err := RunMultiSearch(pat, 5, quickOpts(3, 1, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 6 {
		t.Fatalf("%d outcomes, want 6 (ceil-division overshoot)", len(res.All))
	}
	ranksSeen := map[int]int{}
	for _, o := range res.All {
		ranksSeen[o.Rank]++
	}
	for r := 0; r < 3; r++ {
		if ranksSeen[r] != 2 {
			t.Fatalf("rank %d ran %d searches, want 2", r, ranksSeen[r])
		}
	}
}

func TestMultiSearchReproducible(t *testing.T) {
	pat := testPatterns(t, 8, 200, 33)
	r1, err := RunMultiSearch(pat, 4, quickOpts(2, 1, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunMultiSearch(pat, 4, quickOpts(2, 1, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best.LogLikelihood != r2.Best.LogLikelihood || r1.Best.Newick != r2.Best.Newick {
		t.Fatal("multi-search not reproducible")
	}
}

func TestMultiSearchMoreStartsNotWorse(t *testing.T) {
	// More independent searches can only improve (or tie) the best
	// score, since the result is a max over searches that include the
	// smaller run's searches (same seeds, same rank count).
	pat := testPatterns(t, 10, 300, 34)
	few, err := RunMultiSearch(pat, 1, quickOpts(1, 1, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunMultiSearch(pat, 5, quickOpts(1, 1, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if many.Best.LogLikelihood < few.Best.LogLikelihood-1e-9 {
		t.Fatalf("5 searches (%.4f) worse than 1 (%.4f)",
			many.Best.LogLikelihood, few.Best.LogLikelihood)
	}
}

func TestMultiSearchRejectsBadCount(t *testing.T) {
	pat := testPatterns(t, 8, 100, 35)
	if _, err := RunMultiSearch(pat, 0, quickOpts(1, 1, 4), nil); err == nil {
		t.Fatal("accepted 0 searches")
	}
}

func TestRunBootstrapsCounts(t *testing.T) {
	pat := testPatterns(t, 8, 250, 36)
	opts := quickOpts(3, 1, 10)
	res, err := RunBootstraps(pat, opts)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(3, 10)
	if len(res.Trees) != sched.TotalBootstraps() {
		t.Fatalf("%d replicate trees, want %d", len(res.Trees), sched.TotalBootstraps())
	}
	if res.PerRank != sched.BootstrapsPerProcess {
		t.Fatalf("PerRank = %d, want %d", res.PerRank, sched.BootstrapsPerProcess)
	}
	for i, tr := range res.Trees {
		if err := tr.Validate(); err != nil {
			t.Fatalf("replicate %d invalid: %v", i, err)
		}
	}
}

func TestRunBootstrapsReproducible(t *testing.T) {
	pat := testPatterns(t, 8, 200, 37)
	r1, err := RunBootstraps(pat, quickOpts(2, 1, 6))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBootstraps(pat, quickOpts(2, 1, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Trees) != len(r2.Trees) {
		t.Fatal("replicate counts differ")
	}
	for i := range r1.Trees {
		d, err := tree.RobinsonFoulds(r1.Trees[i], r2.Trees[i])
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Fatalf("replicate %d differs across identical runs", i)
		}
	}
}

func TestGlobalFastSortAblation(t *testing.T) {
	// The Section-2.2 ablation: global sorting must produce a valid,
	// reproducible analysis whose result is in the same quality range as
	// the local-sort default (the paper found the local sort's loss "more
	// than offset" by the extra thorough searches).
	pat := testPatterns(t, 10, 350, 38)
	local, err := Run(pat, quickOpts(4, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	optsG := quickOpts(4, 1, 10)
	optsG.GlobalFastSort = true
	global, err := Run(pat, optsG)
	if err != nil {
		t.Fatal(err)
	}
	if err := global.BestTree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same schedule executed in both modes.
	for r := range global.Ranks {
		if len(global.Ranks[r].SlowScores) != len(local.Ranks[r].SlowScores) {
			t.Fatalf("rank %d: slow-search counts differ between modes", r)
		}
	}
	if diff := math.Abs(global.BestLogLikelihood - local.BestLogLikelihood); diff > 25 {
		t.Fatalf("global-sort ablation wildly different: %.4f vs %.4f",
			global.BestLogLikelihood, local.BestLogLikelihood)
	}
	// Reproducibility holds in ablation mode too.
	global2, err := Run(pat, optsG)
	if err != nil {
		t.Fatal(err)
	}
	if global2.BestLogLikelihood != global.BestLogLikelihood {
		t.Fatal("global-sort mode not reproducible")
	}
}

func TestSortOutcomes(t *testing.T) {
	outcomes := []SearchOutcome{
		{Rank: 1, Index: 0, LogLikelihood: -30},
		{Rank: 0, Index: 1, LogLikelihood: -10},
		{Rank: 0, Index: 0, LogLikelihood: -10},
		{Rank: 2, Index: 0, LogLikelihood: -20},
	}
	SortOutcomes(outcomes)
	if outcomes[0].LogLikelihood != -10 || outcomes[0].Index != 0 {
		t.Fatalf("sort order wrong: %+v", outcomes)
	}
	if outcomes[1].LogLikelihood != -10 || outcomes[1].Index != 1 {
		t.Fatalf("tie-break wrong: %+v", outcomes)
	}
	if outcomes[3].LogLikelihood != -30 {
		t.Fatalf("descending order wrong: %+v", outcomes)
	}
}

func TestMultiSearchWithCustomSettings(t *testing.T) {
	pat := testPatterns(t, 8, 150, 39)
	opts := quickOpts(2, 2, 4)
	s := search.Fast()
	s.MinRadius, s.MaxRadius = 2, 2
	opts.ThoroughSettings = &s
	res, err := RunMultiSearch(pat, 2, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 2 {
		t.Fatalf("%d outcomes, want 2", len(res.All))
	}
}
