package finegrain

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/seqgen"
	"raxml/internal/tree"
)

// BenchmarkFinegrainDispatch measures the cost of one distributed pool
// dispatch — encode + broadcast + local stripe evaluate + rank-ordered
// partial collection — with warm CLVs (empty descriptor), i.e. the pure
// round-trip overhead a makenewz-style iteration pays per barrier
// crossing. ranks=1 is the degenerate grid (no remote ranks: encode +
// local execution only), so the ranks=2 delta is the wire's share.
// The wider grids (ranks=4, ranks=8) pin the scatter's scaling: every
// rank's frame is written before any stripe runs, so the stripes of all
// R ranks overlap and a dispatch grows by one small write and one read
// per rank, not by one round trip. They skip on machines with fewer cores than ranks — an oversubscribed
// in-proc grid measures the scheduler, not the pipeline — so the
// recorded baseline only carries the variants the bench host can run
// (ranks=1 and ranks=2 always run; they fit any host and anchor the
// baseline keys).
// Gated by scripts/benchdiff.go against BENCH_BASELINE.json.
func BenchmarkFinegrainDispatch(b *testing.B) {
	pat := makeData(b, 12, 2000, 2, 42)
	topo := tree.Random(pat.Names, rng.New(3))
	a0 := 0
	b0 := -1 // resolved after attach

	for _, ranks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			if ranks > 2 && ranks > runtime.NumCPU() {
				b.Skipf("%d ranks need %d cores, have %d", ranks, ranks, runtime.NumCPU())
			}
			err := Run(ranks, 1, pat, makeSet(b, pat, true), func(eng *likelihood.Engine, pool *Pool) error {
				if err := eng.AttachTree(topo.Clone()); err != nil {
					return err
				}
				b0 = eng.Tree().Nodes[a0].Neighbors[0]
				eng.LogLikelihood() // warm: tiles bound, CLVs valid, model shipped
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.EvaluateEdge(a0, b0)
				}
				b.StopTimer()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkOptimizeBranchRemote times one whole OptimizeBranch — the
// setup round trip plus a full Newton loop, started from the length
// (of a fixed handful) whose loop is closest to the 9.35 iterations the
// searches average; newton-iters/op reports it — over a 2-rank grid, per transport, rate treatment,
// pattern count and answer to "who sums the Newton derivatives":
// `gather` brings the remote stripe's sumtable rows home on the setup
// partial and iterates on the master, `distributed` leaves them on
// their rank and visits it once per iteration. Where `gather` stops
// winning on tcp is where sumtableGatherCrossover sits; the recorded
// table is in docs/hybrid-topology.md, the keys in BENCH_BASELINE.json
// (gated by scripts/benchdiff.go).
func BenchmarkOptimizeBranchRemote(b *testing.B) {
	// Exactly n patterns: simulate more sites than that, compress, and
	// keep the first n columns of the pattern axis.
	patterns := func(n int) *msa.Patterns {
		a, _, err := seqgen.Generate(seqgen.Config{Taxa: 24, Chars: 3 * n, Seed: 17, TreeScale: 1, Alpha: 0.9})
		if err != nil {
			b.Fatal(err)
		}
		pat, err := msa.Compress(a)
		if err != nil {
			b.Fatal(err)
		}
		if pat.NumPatterns() < n {
			b.Fatalf("%d sites compress to %d patterns, need %d", 3*n, pat.NumPatterns(), n)
		}
		pat, _, _ = pat.Slice(0, n)
		return pat
	}
	loop := func(b *testing.B, eng *likelihood.Engine, topo *tree.Tree) error {
		tr := topo.Clone()
		if err := eng.AttachTree(tr); err != nil {
			return err
		}
		e := tr.Edges()[0]
		// The endpoint views face the branch, so they stay valid under a
		// length set behind the engine's back.
		optimizeFrom := func(start float64) int {
			tr.SetEdgeLength(e.A, e.B, start)
			eng.OptimizeBranch(e.A, e.B)
			return eng.LastNewtonIterations()
		}
		// Doubles as the warm-up: tiles bound, model shipped, buffers sized.
		start, off := 0.0, math.Inf(1)
		for _, s := range []float64{0.02, 0.05, 0.1, 0.2, 0.4, 0.9, 2, 4} {
			if d := math.Abs(float64(optimizeFrom(s)) - 9.35); d < off {
				start, off = s, d
			}
		}
		iters := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			iters += optimizeFrom(start)
		}
		b.StopTimer()
		b.ReportMetric(float64(iters)/float64(b.N), "newton-iters/op")
		return nil
	}
	for _, n := range []int{200, 800, 3200, 12800} {
		pat := patterns(n)
		topo := tree.Random(pat.Names, rng.New(3))
		for _, transport := range []string{"chan", "tcp"} {
			for _, cat := range []bool{true, false} {
				for _, gather := range []bool{true, false} {
					model, side := "GAMMA", "distributed"
					if cat {
						model = "CAT"
					}
					if gather {
						side = "gather"
					}
					b.Run(fmt.Sprintf("%s/%s/%s/patterns=%d", transport, model, side, n), func(b *testing.B) {
						forceGather(b, gather)
						if transport == "tcp" {
							eng, _, stop := tcpGrid(b, 2, 1, pat, cat)
							defer stop()
							if err := loop(b, eng, topo); err != nil {
								b.Fatal(err)
							}
							return
						}
						err := Run(2, 1, pat, makeSet(b, pat, cat), func(eng *likelihood.Engine, _ *Pool) error {
							return loop(b, eng, topo)
						})
						if err != nil {
							b.Fatal(err)
						}
					})
				}
			}
		}
	}
}
