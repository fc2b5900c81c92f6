// Benchmarks regenerating every table and figure of the paper, one
// testing.B target per artifact, plus kernel-level micro-benchmarks and
// ablations of the design decisions they rest on. Run with:
//
//	go test -bench=. -benchmem
package raxml

import (
	"fmt"
	"testing"

	"raxml/internal/core"
	"raxml/internal/figures"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/parsimony"
	"raxml/internal/perfmodel"
	"raxml/internal/rng"
	"raxml/internal/search"
	"raxml/internal/seqgen"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// ---------- one bench per table / figure ----------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := figures.Table1(); a == nil {
			b.Fatal("nil artifact")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := figures.Table2(); a == nil {
			b.Fatal("nil artifact")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := figures.Table3(false); a == nil {
			b.Fatal("nil artifact")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := figures.Table4(); a == nil {
			b.Fatal("nil artifact")
		}
	}
}

func benchArtifact(b *testing.B, gen func() (*figures.Artifact, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := gen(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B) { benchArtifact(b, figures.Fig1) }
func BenchmarkFig2(b *testing.B) { benchArtifact(b, figures.Fig2) }
func BenchmarkFig3(b *testing.B) { benchArtifact(b, figures.Fig3) }
func BenchmarkFig4(b *testing.B) { benchArtifact(b, figures.Fig4) }
func BenchmarkFig5(b *testing.B) { benchArtifact(b, figures.Fig5) }
func BenchmarkFig6(b *testing.B) { benchArtifact(b, figures.Fig6) }
func BenchmarkFig7(b *testing.B) { benchArtifact(b, figures.Fig7) }
func BenchmarkFig8(b *testing.B) { benchArtifact(b, figures.Fig8) }

func BenchmarkTable5(b *testing.B) { benchArtifact(b, figures.Table5) }

func BenchmarkTable6(b *testing.B) {
	// Real engine runs: serial vs 10-rank hybrid on scaled-down data.
	for i := 0; i < b.N; i++ {
		if _, err := figures.Table6(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection51SingleNode(b *testing.B) { benchArtifact(b, figures.SingleNodeComparison) }
func BenchmarkSection7Efficiency(b *testing.B)  { benchArtifact(b, figures.EfficiencyReferences) }

// ---------- end-to-end analysis benches ----------

func benchData(b *testing.B, taxa, chars int) *msa.Patterns {
	b.Helper()
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: taxa, Chars: chars, Seed: 42, TreeScale: 0.5, Alpha: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		b.Fatal(err)
	}
	return pat
}

func quickAnalysisOpts(ranks, workers int) core.Options {
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
	return core.Options{
		Bootstraps: 10, Ranks: ranks, Workers: workers,
		SeedParsimony: 12345, SeedBootstrap: 12345,
		FastSettings: &fast, SlowSettings: &slow,
		ThoroughSettings: &thorough, BootstrapSettings: &bs,
	}
}

// BenchmarkComprehensive measures the real hybrid pipeline at several
// rank × worker decompositions of the same core budget — the in-repo
// equivalent of the paper's single-node comparison.
func BenchmarkComprehensive(b *testing.B) {
	pat := benchData(b, 12, 300)
	for _, cfg := range []struct{ ranks, workers int }{
		{1, 1}, {1, 4}, {2, 2}, {4, 1},
	} {
		b.Run(fmt.Sprintf("ranks=%d,workers=%d", cfg.ranks, cfg.workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(pat, quickAnalysisOpts(cfg.ranks, cfg.workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThreadScaling measures the real fine-grained layer: one full
// likelihood evaluation at growing worker counts over a paper-sized
// pattern count, the in-repo analogue of the optimal-threads result.
func BenchmarkThreadScaling(b *testing.B) {
	pat := benchData(b, 60, 2400)
	tr := tree.Random(pat.Names, rng.New(7))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := threads.NewPool(workers, pat.NumPatterns())
			defer pool.Close()
			eng, err := likelihood.New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()),
				likelihood.Config{Pool: pool})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.AttachTree(tr); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.InvalidateAll()
				_ = eng.LogLikelihood()
			}
		})
	}
}

// BenchmarkTraversalDispatch measures what the traversal-descriptor job
// engine buys: a full-tree relikelihood posted as ONE batched job (one
// barrier crossing) versus the pre-descriptor behaviour of one job per
// stale node. The gap is pure synchronization overhead — the quantity
// RAxML's traversalInfo machinery exists to amortize — and widens with
// the worker count.
func BenchmarkTraversalDispatch(b *testing.B) {
	pat := benchData(b, 60, 2400)
	tr := tree.Random(pat.Names, rng.New(7))
	for _, mode := range []struct {
		name    string
		perNode bool
	}{{"batched", false}, {"pernode", true}} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(b *testing.B) {
				pool := threads.NewPool(workers, pat.NumPatterns())
				defer pool.Close()
				eng, err := likelihood.New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()),
					likelihood.Config{Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.AttachTree(tr); err != nil {
					b.Fatal(err)
				}
				eng.SetPerNodeDispatch(mode.perNode)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.InvalidateAll()
					_ = eng.LogLikelihood()
				}
				b.StopTimer()
				d := float64(eng.DispatchCount()) / float64(b.N)
				b.ReportMetric(d, "dispatches/op")
			})
		}
	}
}

// ---------- ablations ----------

// BenchmarkAblationLazyVsFullSPR compares the lazy insertion scoring
// against full re-evaluation of each candidate, quantifying why RAxML's
// lazy SPR exists.
func BenchmarkAblationLazyVsFullSPR(b *testing.B) {
	pat := benchData(b, 20, 800)
	pool := threads.NewPool(1, pat.NumPatterns())
	defer pool.Close()
	eng, err := likelihood.New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()),
		likelihood.Config{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	tr := parsimony.StepwiseAddition(pat, rng.New(3), pool)
	if err := eng.AttachTree(tr); err != nil {
		b.Fatal(err)
	}
	// A fixed pruning with its candidate set.
	var root, attach int
	for _, e := range tr.Edges() {
		if !tr.Nodes[e.B].IsTip() {
			root, attach = e.A, e.B
			break
		}
	}
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := tr.DanglingPrune(root, attach)
			if err != nil {
				b.Fatal(err)
			}
			eng.InvalidateAll()
			for _, cand := range tr.AppendRegraftCandidates(nil, p, 5) {
				_ = eng.EvaluateInsertion(root, p.Attach, cand.A, cand.B)
			}
			tr.PlugBack(p)
			eng.InvalidateAll()
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := tr.DanglingPrune(root, attach)
			if err != nil {
				b.Fatal(err)
			}
			eng.InvalidateAll()
			for _, cand := range tr.AppendRegraftCandidates(nil, p, 5) {
				if err := tr.Plug(p, cand); err != nil {
					b.Fatal(err)
				}
				eng.InvalidateAll()
				_ = eng.LogLikelihood()
				tr.UnplugKeepDangling(p, cand)
				eng.InvalidateAll()
			}
			tr.PlugBack(p)
			eng.InvalidateAll()
		}
	})
}

// BenchmarkModelSweep measures a full Table-5-style best-config sweep on
// the performance model (all machines, all data sets, 80 cores).
func BenchmarkModelSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range perfmodel.Machines() {
			for _, d := range perfmodel.DataSets() {
				cores := 80
				if m.Name == "Triton PDAF" {
					cores = 64
				}
				if _, err := perfmodel.BestConfig(m, d, cores, 100, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
