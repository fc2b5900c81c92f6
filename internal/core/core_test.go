package core

import (
	"math"
	"testing"

	"raxml/internal/finegrain"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/search"
	"raxml/internal/seqgen"
	"raxml/internal/tree"
)

// ---------- Table 2: exact reproduction ----------

func TestScheduleTable2(t *testing.T) {
	// Every row of Table 2 of the paper.
	rows := []struct {
		p, specified                    int
		boots, fast, slow, thorough     int
		bootsPP, fastPP, slowPP, thorPP int
	}{
		{1, 100, 100, 20, 10, 1, 100, 20, 10, 1},
		{2, 100, 100, 20, 10, 2, 50, 10, 5, 1},
		{4, 100, 100, 20, 12, 4, 25, 5, 3, 1},
		{5, 100, 100, 20, 10, 5, 20, 4, 2, 1},
		{8, 100, 104, 24, 16, 8, 13, 3, 2, 1},
		{10, 100, 100, 20, 10, 10, 10, 2, 1, 1},
		{16, 100, 112, 32, 16, 16, 7, 2, 1, 1},
		{20, 100, 100, 20, 20, 20, 5, 1, 1, 1},
		{10, 500, 500, 100, 10, 10, 50, 10, 1, 1},
		{20, 500, 500, 100, 20, 20, 25, 5, 1, 1},
	}
	for _, row := range rows {
		s := NewSchedule(row.p, row.specified)
		if s.TotalBootstraps() != row.boots {
			t.Errorf("p=%d N=%d: bootstraps %d, want %d", row.p, row.specified, s.TotalBootstraps(), row.boots)
		}
		if s.TotalFast() != row.fast {
			t.Errorf("p=%d N=%d: fast %d, want %d", row.p, row.specified, s.TotalFast(), row.fast)
		}
		if s.TotalSlow() != row.slow {
			t.Errorf("p=%d N=%d: slow %d, want %d", row.p, row.specified, s.TotalSlow(), row.slow)
		}
		if s.TotalThorough() != row.thorough {
			t.Errorf("p=%d N=%d: thorough %d, want %d", row.p, row.specified, s.TotalThorough(), row.thorough)
		}
		if s.BootstrapsPerProcess != row.bootsPP || s.FastPerProcess != row.fastPP ||
			s.SlowPerProcess != row.slowPP || s.ThoroughPerProcess != row.thorPP {
			t.Errorf("p=%d N=%d: per-process (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				row.p, row.specified,
				s.BootstrapsPerProcess, s.FastPerProcess, s.SlowPerProcess, s.ThoroughPerProcess,
				row.bootsPP, row.fastPP, row.slowPP, row.thorPP)
		}
	}
}

func TestScheduleInvariants(t *testing.T) {
	for p := 1; p <= 32; p++ {
		for _, n := range []int{1, 10, 100, 500, 1200} {
			s := NewSchedule(p, n)
			if s.TotalBootstraps() < n {
				t.Fatalf("p=%d N=%d: total bootstraps %d < specified", p, n, s.TotalBootstraps())
			}
			if s.TotalBootstraps()-n >= p {
				t.Fatalf("p=%d N=%d: overshoot %d >= p", p, n, s.TotalBootstraps()-n)
			}
			if s.FastPerProcess < 1 || s.SlowPerProcess < 1 || s.ThoroughPerProcess != 1 {
				t.Fatalf("p=%d N=%d: degenerate schedule %+v", p, n, s)
			}
			if s.SlowPerProcess > s.FastPerProcess {
				t.Fatalf("p=%d N=%d: more slow than fast searches per process", p, n)
			}
		}
	}
}

func TestScheduleClamping(t *testing.T) {
	s := NewSchedule(0, 0)
	if s.Processes != 1 || s.SpecifiedBootstraps != 1 {
		t.Fatalf("degenerate inputs not clamped: %+v", s)
	}
}

// ---------- full comprehensive analysis ----------

// quickOpts returns options scaled down so a full hybrid run finishes in
// test time while exercising every stage.
func quickOpts(ranks, workers, boots int) Options {
	fast := search.Fast()
	fast.MinRadius, fast.MaxRadius = 3, 3
	slow := search.Slow()
	slow.MinRadius, slow.MaxRadius = 3, 5
	slow.MaxPasses = 1
	slow.OptimizeModel = false
	thorough := search.Thorough()
	thorough.MinRadius, thorough.MaxRadius = 3, 5
	thorough.MaxPasses = 2
	thorough.OptimizePerSiteRates = false
	bs := search.Bootstrap()
	bs.MinRadius, bs.MaxRadius = 2, 2
	return Options{
		Bootstraps:        boots,
		Ranks:             ranks,
		Workers:           workers,
		SeedParsimony:     12345,
		SeedBootstrap:     12345,
		FastSettings:      &fast,
		SlowSettings:      &slow,
		ThoroughSettings:  &thorough,
		BootstrapSettings: &bs,
	}
}

func testPatterns(t *testing.T, taxa, chars int, seed int64) *msa.Patterns {
	t.Helper()
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: taxa, Chars: chars, Seed: seed, TreeScale: 0.5, Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	return pat
}

func TestSerialComprehensive(t *testing.T) {
	pat := testPatterns(t, 10, 250, 21)
	res, err := Run(pat, quickOpts(1, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.BestTree.Validate(); err != nil {
		t.Fatalf("best tree invalid: %v", err)
	}
	if res.TotalBootstraps != 10 {
		t.Errorf("total bootstraps %d, want 10", res.TotalBootstraps)
	}
	if len(res.Ranks) != 1 {
		t.Fatalf("%d rank reports, want 1", len(res.Ranks))
	}
	rep := res.Ranks[0]
	if len(rep.FastScores) != 2 { // ceil(10/5)
		t.Errorf("%d fast searches, want 2", len(rep.FastScores))
	}
	if len(rep.SlowScores) != 2 { // min(fast, ceil(10/1)) = 2
		t.Errorf("%d slow searches, want 2", len(rep.SlowScores))
	}
	if res.BestRank != 0 {
		t.Errorf("best rank %d, want 0", res.BestRank)
	}
	if math.IsNaN(res.BestLogLikelihood) || res.BestLogLikelihood >= 0 {
		t.Errorf("suspicious best logL %v", res.BestLogLikelihood)
	}
}

func TestHybridComprehensive(t *testing.T) {
	pat := testPatterns(t, 10, 250, 22)
	res, err := Run(pat, quickOpts(4, 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(4, 10)
	if res.TotalBootstraps != sched.TotalBootstraps() {
		t.Errorf("total bootstraps %d, want %d", res.TotalBootstraps, sched.TotalBootstraps())
	}
	if len(res.Ranks) != 4 {
		t.Fatalf("%d rank reports, want 4", len(res.Ranks))
	}
	for r, rep := range res.Ranks {
		if rep.Rank != r {
			t.Errorf("report %d has rank %d", r, rep.Rank)
		}
		if len(rep.FastScores) != sched.FastPerProcess {
			t.Errorf("rank %d: %d fast searches, want %d", r, len(rep.FastScores), sched.FastPerProcess)
		}
		if len(rep.SlowScores) != sched.SlowPerProcess {
			t.Errorf("rank %d: %d slow searches, want %d", r, len(rep.SlowScores), sched.SlowPerProcess)
		}
		if rep.ThoroughScore >= 0 {
			t.Errorf("rank %d: thorough score %v", r, rep.ThoroughScore)
		}
	}
	// The winner's thorough score must be the maximum.
	best := math.Inf(-1)
	bestRank := -1
	for r, rep := range res.Ranks {
		if rep.ThoroughScore > best {
			best = rep.ThoroughScore
			bestRank = r
		}
	}
	if res.BestRank != bestRank || res.BestLogLikelihood != best {
		t.Errorf("winner (%d, %.4f) does not match reports' best (%d, %.4f)",
			res.BestRank, res.BestLogLikelihood, bestRank, best)
	}
}

func TestHybridReproducible(t *testing.T) {
	// Section 2.4: same seeds + same rank count → identical results.
	pat := testPatterns(t, 8, 200, 23)
	r1, err := Run(pat, quickOpts(3, 1, 6))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(pat, quickOpts(3, 1, 6))
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestLogLikelihood != r2.BestLogLikelihood || r1.BestRank != r2.BestRank {
		t.Fatalf("hybrid run not reproducible: (%.10f, rank %d) vs (%.10f, rank %d)",
			r1.BestLogLikelihood, r1.BestRank, r2.BestLogLikelihood, r2.BestRank)
	}
	n1, _ := tree.FormatNewick(r1.BestTree, nil)
	n2, _ := tree.FormatNewick(r2.BestTree, nil)
	if n1 != n2 {
		t.Fatal("hybrid run returned different best trees across identical invocations")
	}
}

func TestHybridThreadCountDoesNotChangeResult(t *testing.T) {
	pat := testPatterns(t, 8, 200, 24)
	r1, err := Run(pat, quickOpts(2, 1, 6))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(pat, quickOpts(2, 4, 6))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.BestLogLikelihood-r2.BestLogLikelihood) > 1e-6*math.Abs(r1.BestLogLikelihood) {
		t.Fatalf("worker count changed the result: %.8f vs %.8f",
			r1.BestLogLikelihood, r2.BestLogLikelihood)
	}
}

func TestHybridQualityAtLeastSerial(t *testing.T) {
	// Table 6's claim: the multi-process solutions are as good as or
	// better than the serial ones (more thorough searches run).
	// Identical seeds make the serial run's search path a subset-like
	// baseline; we allow a tiny tolerance for branch-length noise.
	pat := testPatterns(t, 10, 400, 25)
	serial, err := Run(pat, quickOpts(1, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := Run(pat, quickOpts(4, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.BestLogLikelihood < serial.BestLogLikelihood-1.0 {
		t.Fatalf("hybrid solution (%.4f) clearly worse than serial (%.4f)",
			hybrid.BestLogLikelihood, serial.BestLogLikelihood)
	}
}

func TestSupportValues(t *testing.T) {
	pat := testPatterns(t, 8, 600, 26)
	res, err := Run(pat, quickOpts(2, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support) == 0 {
		t.Fatal("no support values computed")
	}
	for e, pct := range res.Support {
		if pct < 0 || pct > 100 {
			t.Fatalf("support %d%% on edge %v", pct, e)
		}
	}
	// Support must be expressible on the output Newick.
	nw, err := tree.FormatNewick(res.BestTree, res.Support)
	if err != nil {
		t.Fatal(err)
	}
	if nw == "" {
		t.Fatal("empty annotated newick")
	}
}

func TestStageTimesPopulated(t *testing.T) {
	pat := testPatterns(t, 8, 200, 27)
	res, err := Run(pat, quickOpts(2, 1, 6))
	if err != nil {
		t.Fatal(err)
	}
	for r, rep := range res.Ranks {
		if rep.Times.Bootstrap <= 0 || rep.Times.Fast <= 0 ||
			rep.Times.Slow <= 0 || rep.Times.Thorough <= 0 {
			t.Errorf("rank %d: zero stage time %+v", r, rep.Times)
		}
		if rep.Times.Total() <= 0 {
			t.Errorf("rank %d: zero total", r)
		}
	}
	if res.Elapsed <= 0 {
		t.Error("zero elapsed time")
	}
}

func TestGammaModelRuns(t *testing.T) {
	pat := testPatterns(t, 8, 150, 28)
	opts := quickOpts(2, 1, 5)
	opts.Model = GTRGAMMA
	res, err := Run(pat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestLogLikelihood >= 0 {
		t.Fatalf("GAMMA analysis logL %v", res.BestLogLikelihood)
	}
}

func TestModelTypeString(t *testing.T) {
	if GTRCAT.String() != "GTRCAT" || GTRGAMMA.String() != "GTRGAMMA" {
		t.Error("ModelType.String broken")
	}
}

func TestRunRejectsTinyData(t *testing.T) {
	a := &msa.Alignment{
		Names: []string{"a", "b", "c", "d"},
		Seqs:  make([][]msa.State, 4),
	}
	for i := range a.Seqs {
		a.Seqs[i] = []msa.State{msa.A}
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	// 4 taxa / 1 char is legal; just ensure it does not crash.
	if _, err := Run(pat, quickOpts(1, 1, 2)); err != nil {
		t.Fatalf("minimal data set failed: %v", err)
	}
}

// ---------- outputs do not depend on kernel set or invalidation ----------

// TestOutputsIdenticalAcrossKernelsAndInvalidation runs the
// comprehensive analysis (-f a) and a bootstrap-only run (-f b) under
// the scalar kernels, the AVX2 kernels, and engines forced to
// invalidate everything after every topology edit, and compares what
// the CLI would write — RAxML_bestTree, RAxML_bipartitions,
// RAxML_bootstrap — byte for byte, and the best log-likelihood at full
// precision. GTRCAT is the shape whose every kernel-set-dependent loop
// (newview, makenewz setup and core, scan join, blocked logarithm) is
// pinned bit-identical in all builds; it runs on one partition and on
// two (each with its own categories), on one worker and on two.
func TestOutputsIdenticalAcrossKernelsAndInvalidation(t *testing.T) {
	if testing.Short() {
		t.Skip("three full analyses per case")
	}
	single := testPatterns(t, 12, 500, 31)
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 12, Chars: 500, Seed: 33, TreeScale: 0.5, Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	double, err := msa.CompressPartitioned(a, []msa.PartitionDef{
		{ModelName: "DNA", Name: "geneA", Ranges: []msa.SiteRange{{Lo: 0, Hi: 230, Stride: 1}}},
		{ModelName: "DNA", Name: "geneB", Ranges: []msa.SiteRange{{Lo: 230, Hi: 500, Stride: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		pat     *msa.Patterns
		workers int
	}{
		{"1 partition, T=1", single, 1},
		{"1 partition, T=2", single, 2},
		{"2 partitions, T=1", double, 1},
		{"2 partitions, T=2", double, 2},
	}
	type outputs struct {
		best, bipartitions, bootstrap string
		lnL                           float64
	}
	run := func(t *testing.T, pat *msa.Patterns, workers int, kernels string, coarse bool) outputs {
		t.Helper()
		if err := likelihood.SetKernelMode(kernels); err != nil {
			t.Skipf("kernel set %q: %v", kernels, err)
		}
		likelihood.SetCoarseInvalidation(coarse)
		defer func() {
			likelihood.SetCoarseInvalidation(false)
			if err := likelihood.SetKernelMode("auto"); err != nil {
				t.Fatal(err)
			}
		}()
		opts := Options{Bootstraps: 6, Ranks: 1, Workers: workers, SeedParsimony: 41, SeedBootstrap: 43, Model: GTRCAT}
		res, err := Run(pat, opts)
		if err != nil {
			t.Fatal(err)
		}
		var out outputs
		out.lnL = res.BestLogLikelihood
		if out.best, err = tree.FormatNewick(res.BestTree, nil); err != nil {
			t.Fatal(err)
		}
		if out.bipartitions, err = tree.FormatNewick(res.BestTree, res.Support); err != nil {
			t.Fatal(err)
		}
		bs, err := RunBootstraps(pat, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range bs.Trees {
			nw, err := tree.FormatNewick(tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			out.bootstrap += nw + "\n"
		}
		return out
	}
	want := make([]outputs, len(cases))
	for i, tc := range cases {
		want[i] = run(t, tc.pat, tc.workers, "scalar", false)
	}
	for _, alt := range []struct {
		name    string
		kernels string
		coarse  bool
	}{
		{"avx2", "avx2", false},
		{"scalar, invalidate-all", "scalar", true},
	} {
		t.Run(alt.name, func(t *testing.T) {
			for i, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					got, want := run(t, tc.pat, tc.workers, alt.kernels, alt.coarse), want[i]
					if got.lnL != want.lnL {
						t.Errorf("best lnL %.17g, scalar/precise %.17g", got.lnL, want.lnL)
					}
					if got.best != want.best {
						t.Errorf("RAxML_bestTree differs:\n%s\n%s", got.best, want.best)
					}
					if got.bipartitions != want.bipartitions {
						t.Errorf("RAxML_bipartitions differs:\n%s\n%s", got.bipartitions, want.bipartitions)
					}
					if got.bootstrap != want.bootstrap {
						t.Errorf("RAxML_bootstrap differs:\n%s\n%s", got.bootstrap, want.bootstrap)
					}
				})
			}
		})
	}

	// The same three configurations over a 2-rank fine grain (-fine -f d),
	// once per answer to "who sums the Newton derivatives": as built — a
	// sumtable this small rides home on the setup partial and the master
	// runs the Newton loop — and with the distributed core job forced.
	// Either way the search's tree and likelihood must not depend on the
	// kernel set or the invalidation policy.
	fine := func(t *testing.T, pat *msa.Patterns, workers int, kernels string, coarse bool) (string, float64) {
		t.Helper()
		if err := likelihood.SetKernelMode(kernels); err != nil {
			t.Skipf("kernel set %q: %v", kernels, err)
		}
		likelihood.SetCoarseInvalidation(coarse)
		defer func() {
			likelihood.SetCoarseInvalidation(false)
			if err := likelihood.SetKernelMode("auto"); err != nil {
				t.Fatal(err)
			}
		}()
		opts := Options{Ranks: 2, Workers: workers, SeedParsimony: 41, Model: GTRCAT}
		res, err := RunFineSearches(pat, 1, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := tree.FormatNewick(res.BestTree, nil)
		if err != nil {
			t.Fatal(err)
		}
		return nw, res.Best.LogLikelihood
	}
	for _, side := range []struct {
		name  string
		limit int
	}{
		{"fine R=2, gathered sumtable", finegrain.SumtableGatherLimit},
		{"fine R=2, distributed core", 0},
	} {
		t.Run(side.name, func(t *testing.T) {
			was := finegrain.SumtableGatherLimit
			finegrain.SumtableGatherLimit = side.limit
			defer func() { finegrain.SumtableGatherLimit = was }()
			for _, tc := range cases[1:3] { // one partition on two threads, two partitions on one
				t.Run(tc.name, func(t *testing.T) {
					wantTree, wantLnL := fine(t, tc.pat, tc.workers, "scalar", false)
					for _, alt := range []struct {
						kernels string
						coarse  bool
					}{{"avx2", false}, {"scalar", true}} {
						gotTree, gotLnL := fine(t, tc.pat, tc.workers, alt.kernels, alt.coarse)
						if gotLnL != wantLnL || gotTree != wantTree {
							t.Errorf("kernels %s, invalidate-all %v: lnL %.17g and tree\n%s\nscalar/precise: lnL %.17g and tree\n%s",
								alt.kernels, alt.coarse, gotLnL, gotTree, wantLnL, wantTree)
						}
					}
				})
			}
		})
	}
}
