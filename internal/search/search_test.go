package search

import (
	"fmt"
	"math"
	"testing"

	"raxml/internal/finegrain"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/parsimony"
	"raxml/internal/rng"
	"raxml/internal/seqgen"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

func testData(t *testing.T, taxa, chars int, seed int64) *msa.Patterns {
	t.Helper()
	a, _, err := seqgen.Generate(seqgen.Config{
		Taxa: taxa, Chars: chars, Seed: seed, TreeScale: 0.5, Alpha: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	return pat
}

func testEngine(t *testing.T, pat *msa.Patterns, workers int) *likelihood.Engine {
	t.Helper()
	pool := threads.NewPool(workers, pat.NumPatterns())
	t.Cleanup(pool.Close)
	eng, err := likelihood.New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), likelihood.Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestFastSearchImprovesRandomStart(t *testing.T) {
	pat := testData(t, 12, 400, 1)
	eng := testEngine(t, pat, 1)
	start := tree.Random(pat.Names, rng.New(5))
	if err := eng.AttachTree(start.Clone()); err != nil {
		t.Fatal(err)
	}
	startLL := eng.OptimizeAllBranches(2, 0.01)

	res, err := Run(eng, start, Fast())
	if err != nil {
		t.Fatal(err)
	}
	if res.LogLikelihood < startLL-1e-6 {
		t.Fatalf("fast search worsened logL: %.4f -> %.4f", startLL, res.LogLikelihood)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatalf("search returned invalid tree: %v", err)
	}
	if res.ScannedInsertions == 0 {
		t.Fatal("search scanned no insertions")
	}
}

func TestSearchRecoversTrueTreeNeighborhood(t *testing.T) {
	// On clean simulated data, a thorough search from a parsimony start
	// must land near the generating topology.
	a, truth, err := seqgen.Generate(seqgen.Config{
		Taxa: 10, Chars: 1500, Seed: 3, TreeScale: 0.4, Alpha: 2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	pat, _ := msa.Compress(a)
	eng := testEngine(t, pat, 2)
	start := parsimony.StepwiseAddition(pat, rng.New(7), eng.ThreadPool())
	res, err := Run(eng, start, Thorough())
	if err != nil {
		t.Fatal(err)
	}
	d, err := tree.RobinsonFoulds(res.Tree, truth)
	if err != nil {
		t.Fatal(err)
	}
	if max := tree.MaxRFDistance(10); d > max/2 {
		t.Fatalf("thorough search ended RF=%d from truth (max %d)", d, max)
	}
}

func TestSearchMonotoneAcrossPresets(t *testing.T) {
	// thorough >= slow >= fast when started from the same tree.
	pat := testData(t, 12, 500, 9)
	start := parsimony.StepwiseAddition(pat, rng.New(2), nil)

	lls := map[string]float64{}
	for _, s := range []Settings{Fast(), Slow(), Thorough()} {
		eng := testEngine(t, pat, 1)
		res, err := Run(eng, start.Clone(), s)
		if err != nil {
			t.Fatal(err)
		}
		lls[s.Name] = res.LogLikelihood
	}
	if lls["slow"] < lls["fast"]-0.5 {
		t.Errorf("slow search (%.3f) clearly worse than fast (%.3f)", lls["slow"], lls["fast"])
	}
	if lls["thorough"] < lls["slow"]-0.5 {
		t.Errorf("thorough search (%.3f) clearly worse than slow (%.3f)", lls["thorough"], lls["slow"])
	}
}

func TestSearchDeterministic(t *testing.T) {
	pat := testData(t, 10, 300, 11)
	start := parsimony.StepwiseAddition(pat, rng.New(4), nil)
	run := func() (float64, string) {
		eng := testEngine(t, pat, 2)
		res, err := Run(eng, start.Clone(), Fast())
		if err != nil {
			t.Fatal(err)
		}
		nw, _ := tree.FormatNewick(res.Tree, nil)
		return res.LogLikelihood, nw
	}
	ll1, nw1 := run()
	ll2, nw2 := run()
	if ll1 != ll2 || nw1 != nw2 {
		t.Fatalf("search not deterministic: %.10f vs %.10f", ll1, ll2)
	}
}

func TestSearchThreadInvariance(t *testing.T) {
	pat := testData(t, 10, 400, 13)
	start := parsimony.StepwiseAddition(pat, rng.New(4), nil)
	var refLL float64
	var refNW string
	for i, workers := range []int{1, 2, 4} {
		eng := testEngine(t, pat, workers)
		res, err := Run(eng, start.Clone(), Fast())
		if err != nil {
			t.Fatal(err)
		}
		nw, _ := tree.FormatNewick(res.Tree, nil)
		if i == 0 {
			refLL, refNW = res.LogLikelihood, nw
			continue
		}
		if math.Abs(res.LogLikelihood-refLL) > 1e-6*math.Abs(refLL) {
			t.Fatalf("workers=%d: logL %.8f vs serial %.8f", workers, res.LogLikelihood, refLL)
		}
		if nw != refNW {
			t.Fatalf("workers=%d: topology differs from serial run", workers)
		}
	}
}

func TestSearchWithGamma(t *testing.T) {
	pat := testData(t, 8, 300, 15)
	pool := threads.NewPool(1, pat.NumPatterns())
	t.Cleanup(pool.Close)
	rates, err := gtr.NewGamma(1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.New(pat, gtr.Default(), rates, likelihood.Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	start := parsimony.StepwiseAddition(pat, rng.New(1), nil)
	res, err := Run(eng, start, Fast())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.LogLikelihood) || math.IsInf(res.LogLikelihood, 0) {
		t.Fatalf("GAMMA search returned logL %v", res.LogLikelihood)
	}
}

func TestSearchOnBootstrapWeights(t *testing.T) {
	pat := testData(t, 10, 350, 17)
	eng := testEngine(t, pat, 2)
	w := pat.Resample(rng.New(99))
	eng.SetWeights(w)
	start := parsimony.StepwiseAddition(pat, rng.New(1), nil)
	res, err := Run(eng, start, Bootstrap())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatalf("bootstrap search returned invalid tree: %v", err)
	}
}

func TestPresetShapes(t *testing.T) {
	f, s, th, b := Fast(), Slow(), Thorough(), Bootstrap()
	if f.MaxPasses != 1 {
		t.Error("fast preset should run a single pass")
	}
	if !s.OptimizeModel {
		t.Error("slow preset should optimize the model")
	}
	if !th.OptimizeModel || !th.OptimizePerSiteRates {
		t.Error("thorough preset should fully optimize the model")
	}
	if th.MaxRadius < s.MaxRadius {
		t.Error("thorough radius should be at least slow radius")
	}
	if b.Epsilon < f.Epsilon {
		t.Error("bootstrap preset should be at least as greedy as fast")
	}
}

func TestRunRejectsMismatchedTaxa(t *testing.T) {
	pat := testData(t, 8, 100, 19)
	eng := testEngine(t, pat, 1)
	other := tree.Random([]string{"w", "x", "y", "z"}, rng.New(1))
	if _, err := Run(eng, other, Fast()); err == nil {
		t.Fatal("accepted tree over wrong taxon set")
	}
}

func BenchmarkFastSearch(b *testing.B) {
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 16, Chars: 600, Seed: 2, TreeScale: 0.5, Alpha: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	pat, _ := msa.Compress(a)
	pool := threads.NewPool(2, pat.NumPatterns())
	defer pool.Close()
	start := parsimony.StepwiseAddition(pat, rng.New(3), pool)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := likelihood.New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), likelihood.Config{Pool: pool})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(eng, start.Clone(), Fast()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScanShipsNoModelBlock runs one lazy-SPR sweep over a 2-rank
// distributed engine and counts the job frames that carried a
// model-sync block: none, because the sweep prunes, scans, plugs and
// reverts but never touches the model — while it does score insertions
// and accept moves. One model mutation afterwards ships exactly one
// block.
func TestScanShipsNoModelBlock(t *testing.T) {
	pat := testData(t, 12, 400, 23)
	set := gtr.NewPartitionSet(1)
	set.Rates[0] = gtr.NewUniform(pat.NumPatterns())
	err := finegrain.Run(2, 1, pat, set, func(eng *likelihood.Engine, _ *finegrain.Pool) error {
		tr := tree.Random(pat.Names, rng.New(24))
		if err := eng.AttachTree(tr); err != nil {
			return err
		}
		best := eng.LogLikelihood()
		blocks, epoch := eng.ModelBlocksEncoded(), modelEpoch(eng)
		res := &Result{Tree: tr}
		if _, err := sprPass(eng, tr, 5, 0.1, &best, res); err != nil {
			return err
		}
		if res.ScannedInsertions == 0 || res.AcceptedMoves == 0 {
			t.Fatalf("sweep scored %d insertions and accepted %d moves: nothing exercised", res.ScannedInsertions, res.AcceptedMoves)
		}
		if got := eng.ModelBlocksEncoded() - blocks; got != 0 || modelEpoch(eng) != epoch {
			t.Errorf("sweep shipped %d model blocks and moved the model epoch by %d, want 0 and 0",
				got, modelEpoch(eng)-epoch)
		}
		eng.SetWeights(nil) // one model-state mutation
		eng.LogLikelihood()
		eng.LogLikelihood()
		if got := eng.ModelBlocksEncoded() - blocks; got != 1 {
			t.Errorf("%d model blocks after one model mutation, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func modelEpoch(eng *likelihood.Engine) uint64 {
	m, _ := eng.WireEpochs()
	return m
}

// BenchmarkSPRPass times one lazy-SPR sweep at the fast preset's radius
// over a 20-taxon parsimony start tree: every prune with its one batched
// scan, the promising plugs with their junction optimization, and the
// invalidation between them — on the serial pool (T=1), on a 2-thread
// crew (T=2) and over a 2-rank chan grid (ranks=2), where the dispatches
// a sweep posts are barrier crossings and wire round trips. The narrow/
// pair is the same sweep on the threads_narrow shape of the repository
// benchmark, 50 taxa on some 200 patterns, where a range is too short
// for any job to be worth publishing: T=2 must read what T=1 reads. The
// thread-pool runs report how their dispatches were run (threads.Counters
// per sweep).
func BenchmarkSPRPass(b *testing.B) {
	fast := Fast()
	for _, in := range []struct {
		prefix      string
		taxa, chars int
		grid        bool
	}{{"", 20, 600, true}, {"narrow/", 50, 300, false}} {
		a, _, err := seqgen.Generate(seqgen.Config{Taxa: in.taxa, Chars: in.chars, Seed: 2, TreeScale: 0.5, Alpha: 0.8})
		if err != nil {
			b.Fatal(err)
		}
		pat, _ := msa.Compress(a)
		serial := threads.NewPool(1, pat.NumPatterns())
		start := parsimony.StepwiseAddition(pat, rng.New(3), serial)
		sweeps := func(b *testing.B, eng *likelihood.Engine) error {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := start.Clone()
				if err := eng.AttachTree(t); err != nil {
					return err
				}
				best := eng.LogLikelihood()
				if _, err := sprPass(eng, t, fast.MinRadius, fast.Epsilon, &best, &Result{Tree: t}); err != nil {
					return err
				}
			}
			b.StopTimer()
			return nil
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%sT=%d", in.prefix, workers), func(b *testing.B) {
				pool := threads.NewPool(workers, pat.NumPatterns())
				defer pool.Close()
				eng, err := likelihood.New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), likelihood.Config{Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				if err := sweeps(b, eng); err != nil {
					b.Fatal(err)
				}
				c, n := pool.Counters(), float64(b.N)
				b.ReportMetric(float64(c.Inline)/n, "inline/op")
				b.ReportMetric(float64(c.Published)/n, "published/op")
				b.ReportMetric(float64(c.Taken)/n, "taken/op")
				b.ReportMetric(float64(c.Wakes)/n, "wakes/op")
			})
		}
		if !in.grid {
			continue
		}
		b.Run(in.prefix+"ranks=2", func(b *testing.B) {
			set := gtr.NewPartitionSet(1)
			set.Rates[0] = gtr.NewUniform(pat.NumPatterns())
			err := finegrain.Run(2, 1, pat, set, func(eng *likelihood.Engine, _ *finegrain.Pool) error {
				return sweeps(b, eng)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
