package likelihood

import (
	"math"
	"strings"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// ---------- helpers ----------

// derivEngines builds the engine matrix the derivative tests sweep:
// CAT and GAMMA treatments, unpartitioned and 3-gene partitioned, each
// with fresh model instances (the optimizers mutate them).
func derivEngines(t *testing.T, workers int) map[string]*Engine {
	t.Helper()
	r := rng.New(4242)
	a := randomAlignment(t, r, 12, 360)
	out := map[string]*Engine{}

	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	out["CAT/unpartitioned"] = newEngine(t, pat, gtr.Default(),
		contentCAT(pat, 0, pat.NumPatterns(), []float64{0.3, 1.0, 2.6}), workers)
	gam, err := gtr.NewGamma(0.7, 4)
	if err != nil {
		t.Fatal(err)
	}
	out["GAMMA/unpartitioned"] = newEngine(t, pat, gtr.Default(), gam, workers)

	mkModel := func(i int) *gtr.Model {
		m, err := gtr.New(
			[6]float64{1 + 0.2*float64(i), 2.5, 0.8, 1.2, 3 - 0.3*float64(i), 1},
			[4]float64{0.22, 0.28, 0.31, 0.19})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	catEng, _ := partitionedEngine(t, a, 3, workers, func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
		return mkModel(pr.Lo % 3), contentCAT(pat, pr.Lo, pr.Hi, []float64{0.5, 1.4, 2.1})
	})
	out["CAT/partitioned"] = catEng
	gamEng, _ := partitionedEngine(t, a, 3, workers, func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
		g, err := gtr.NewGamma(0.5+0.001*float64(pr.Lo), 4)
		if err != nil {
			t.Fatal(err)
		}
		return mkModel(pr.Hi % 3), g
	})
	out["GAMMA/partitioned"] = gamEng
	return out
}

// sumtableDerivs runs the two-phase eigen-basis path directly: one
// setup, whose closing reduction is the evaluation at tv, and one core
// dispatch at tv again — the same reduction over the same sumtable, so
// the two must agree bit for bit.
func sumtableDerivs(t *testing.T, e *Engine, a, slotA, b, slotB int, tv float64) (d1, d2 float64) {
	t.Helper()
	s1, s2 := e.makenewzSetup(a, slotA, b, slotB, tv)
	d1, d2 = e.makenewzCore(tv)
	if math.Float64bits(s1) != math.Float64bits(d1) || math.Float64bits(s2) != math.Float64bits(d2) {
		t.Fatalf("t=%g: setup job reduced (%.17g, %.17g), core job (%.17g, %.17g)", tv, s1, s2, d1, d2)
	}
	return d1, d2
}

// ---------- kernel equivalence ----------

// TestSumtableMatchesLegacyKernel pins the eigen-basis sumtable kernel
// against the full-matrix JobMakenewz kernel: the two compute the same
// d1/d2 up to floating-point re-association, across treatments,
// partition shapes and branch lengths down to near MinBranchLength.
func TestSumtableMatchesLegacyKernel(t *testing.T) {
	for name, e := range derivEngines(t, 3) {
		tr := tree.Random(e.Patterns().Names, rng.New(7))
		if err := e.AttachTree(tr); err != nil {
			t.Fatal(err)
		}
		for _, edge := range [][2]int{
			{0, tr.Nodes[0].Neighbors[0]},
			{tr.Edges()[len(tr.Edges())/2].A, tr.Edges()[len(tr.Edges())/2].B},
		} {
			a, b := edge[0], edge[1]
			slotA := e.slotOf(a, b)
			slotB := e.slotOf(b, a)
			e.refreshViews([2]int{a, slotA}, [2]int{b, slotB})
			for _, tv := range []float64{2 * tree.MinBranchLength, 1e-4, 0.02, 0.3, 1.7} {
				ld1, ld2 := e.branchDerivatives(a, slotA, b, slotB, tv)
				sd1, sd2 := sumtableDerivs(t, e, a, slotA, b, slotB, tv)
				if relDiff(sd1, ld1) > 1e-9 || relDiff(sd2, ld2) > 1e-9 {
					t.Errorf("%s edge (%d,%d) t=%g: sumtable (%.12g, %.12g) vs legacy (%.12g, %.12g)",
						name, a, b, tv, sd1, sd2, ld1, ld2)
				}
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Abs(b); m > 1 {
		return d / m
	}
	return d
}

// ---------- finite-difference oracle ----------

// TestDerivativesFiniteDifference pins BOTH makenewz kernels against
// central finite differences of EvaluateEdge — an oracle independent of
// either derivative implementation. The endpoint views of an edge
// exclude the edge itself, so changing its length needs no CLV refresh
// and the finite differences probe exactly the function the Newton
// iteration climbs. Includes a near-MinBranchLength edge (t = 2e-6,
// h = 1e-6: still a legal two-sided stencil above the 1e-8 floor).
func TestDerivativesFiniteDifference(t *testing.T) {
	for name, e := range derivEngines(t, 2) {
		tr := tree.Random(e.Patterns().Names, rng.New(11))
		if err := e.AttachTree(tr); err != nil {
			t.Fatal(err)
		}
		a := 0
		b := tr.Nodes[0].Neighbors[0]
		slotA := e.slotOf(a, b)
		slotB := e.slotOf(b, a)
		e.refreshViews([2]int{a, slotA}, [2]int{b, slotB})

		lnL := func(tv float64) float64 {
			e.tree.SetEdgeLength(a, b, tv)
			return e.EvaluateEdge(a, b)
		}
		for _, tv := range []float64{2e-6, 1e-3, 0.05, 0.4, 1.5} {
			// Separate stencil widths: the d1 roundoff scales as
			// eps·|lnL|/h (small h fine), the d2 roundoff as
			// eps·|lnL|/h² (needs a wider stencil at large t, where the
			// curvature is mild and truncation error is negligible).
			h1 := 1e-6 * (1 + tv)
			if tv-h1 < tree.MinBranchLength {
				h1 = tv / 2
			}
			h2 := 2e-4 * (1 + tv)
			if tv-h2 < tree.MinBranchLength {
				h2 = tv / 2
			}
			fdD1 := (lnL(tv+h1) - lnL(tv-h1)) / (2 * h1)
			fdD2 := (lnL(tv+h2) - 2*lnL(tv) + lnL(tv-h2)) / (h2 * h2)

			ld1, ld2 := e.branchDerivatives(a, slotA, b, slotB, tv)
			sd1, sd2 := sumtableDerivs(t, e, a, slotA, b, slotB, tv)
			for kernel, d := range map[string][2]float64{"legacy": {ld1, ld2}, "sumtable": {sd1, sd2}} {
				if err := fdCheck(d[0], fdD1, 1e-4, 1e-3); err != "" {
					t.Errorf("%s %s t=%g d1: %s (analytic %.10g, FD %.10g)", name, kernel, tv, err, d[0], fdD1)
				}
				if err := fdCheck(d[1], fdD2, 2e-2, 10); err != "" {
					t.Errorf("%s %s t=%g d2: %s (analytic %.10g, FD %.10g)", name, kernel, tv, err, d[1], fdD2)
				}
			}
		}
	}
}

// fdCheck compares an analytic derivative against a finite-difference
// estimate with a relative tolerance plus an absolute floor absorbing
// the FD roundoff (~eps·|lnL|/h for d1, ~eps·|lnL|/h² for d2).
func fdCheck(analytic, fd, relTol, absTol float64) string {
	d := math.Abs(analytic - fd)
	if d <= absTol+relTol*math.Abs(fd) {
		return ""
	}
	return "disagrees with finite difference"
}

// ---------- optimization golden ----------

// TestOptimizeAllBranchesSumtableGolden runs the full branch-length
// optimization twice on identical inputs — once through the legacy
// full-matrix kernel, once through the eigen-basis sumtable path — and
// requires the endpoints to agree: final log-likelihood at 1e-10
// relative, every branch length within 1e-6.
func TestOptimizeAllBranchesSumtableGolden(t *testing.T) {
	r := rng.New(99)
	pat := randomPatterns(t, r, 20, 400)
	gamA, err := gtr.NewGamma(0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	gamB := gamA.Clone()
	cases := []struct {
		name           string
		ratesA, ratesB *gtr.RateCategories
	}{
		{"CAT", contentCAT(pat, 0, pat.NumPatterns(), []float64{0.4, 1.0, 2.2}),
			contentCAT(pat, 0, pat.NumPatterns(), []float64{0.4, 1.0, 2.2})},
		{"GAMMA", gamA, gamB},
	}
	for _, tc := range cases {
		tr1 := tree.Random(pat.Names, rng.New(13))
		tr2 := tr1.Clone()
		legacy := newEngine(t, pat, gtr.Default(), tc.ratesA, 2)
		legacy.SetLegacyMakenewz(true)
		modern := newEngine(t, pat, gtr.Default(), tc.ratesB, 2)
		if err := legacy.AttachTree(tr1); err != nil {
			t.Fatal(err)
		}
		if err := modern.AttachTree(tr2); err != nil {
			t.Fatal(err)
		}
		llLegacy := legacy.OptimizeAllBranches(3, 0)
		llModern := modern.OptimizeAllBranches(3, 0)
		if relDiff(llModern, llLegacy) > 1e-10 {
			t.Errorf("%s: sumtable lnL %.12f vs legacy %.12f (rel %.3g)",
				tc.name, llModern, llLegacy, relDiff(llModern, llLegacy))
		}
		for _, edge := range tr1.Edges() {
			l1 := tr1.EdgeLength(edge.A, edge.B)
			l2 := tr2.EdgeLength(edge.A, edge.B)
			if math.Abs(l1-l2) > 1e-6*(1+l1) {
				t.Errorf("%s: edge (%d,%d) length %.10g (legacy) vs %.10g (sumtable)",
					tc.name, edge.A, edge.B, l1, l2)
			}
		}
	}
}

// ---------- dispatch accounting ----------

// TestMakenewzDispatchAccounting asserts the two-phase cost model on
// the in-process pool: OptimizeBranch posts exactly one job per Newton
// iteration — the JobMakenewzSetup, which carries the endpoint-view
// refresh in its descriptor and ends with the first derivative
// evaluation, then one JobMakenewzCore per further iteration — whether
// the endpoint views are fresh or stale. (The finegrain mirror of this
// assertion, including the broadcast/reduction counters, lives in
// internal/finegrain.)
func TestMakenewzDispatchAccounting(t *testing.T) {
	r := rng.New(55)
	pat := randomPatterns(t, r, 14, 300)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 3)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	a := 0
	b := tr.Nodes[0].Neighbors[0]
	e.OptimizeBranch(a, b) // warm arena, converge the branch
	_ = e.LogLikelihood()  // leaves both endpoint views of (a, b) fresh
	d0 := e.DispatchCount()
	e.OptimizeBranch(a, b)
	iters := e.LastNewtonIterations()
	if iters < 1 {
		t.Fatalf("no Newton iterations recorded")
	}
	if got := e.DispatchCount() - d0; got != int64(iters) {
		t.Fatalf("OptimizeBranch over fresh views cost %d dispatches, want %d (one per Newton iteration)", got, iters)
	}

	// Stale endpoint views ride the setup job's descriptor: still no
	// dispatch beyond the iterations, and the views come out fresh.
	far := tr.Edges()[len(tr.Edges())/2]
	tr.SetEdgeLength(far.A, far.B, 2*tr.EdgeLength(far.A, far.B))
	e.InvalidateEdge(far.A, far.B)
	if e.valid[b*3+e.slotOf(b, a)] {
		t.Fatal("editing a far edge left the inner endpoint view of (a, b) valid: nothing to refresh")
	}
	d0 = e.DispatchCount()
	e.OptimizeBranch(a, b)
	if got, iters := e.DispatchCount()-d0, e.LastNewtonIterations(); got != int64(iters) {
		t.Fatalf("OptimizeBranch over stale views cost %d dispatches, want %d (one per Newton iteration)", got, iters)
	}
	if !e.valid[b*3+e.slotOf(b, a)] {
		t.Fatal("the setup job left the inner endpoint view stale")
	}
}

// TestMemoryBytesCountsSumtable: the sumtable arena is part of the
// reported likelihood footprint once branch optimization has run.
func TestMemoryBytesCountsSumtable(t *testing.T) {
	r := rng.New(66)
	pat := randomPatterns(t, r, 8, 200)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	before := e.MemoryBytes()
	e.OptimizeBranch(0, tr.Nodes[0].Neighbors[0])
	delta := e.MemoryBytes() - before
	if want := int64(e.tileFloats) * 8; delta < want {
		t.Fatalf("MemoryBytes grew by %d after OptimizeBranch, want >= %d (one sumtable tile)", delta, want)
	}
	// Reused, not re-grown, on the next branch.
	stable := e.MemoryBytes()
	e.OptimizeBranch(0, tr.Nodes[0].Neighbors[0])
	if e.MemoryBytes() != stable {
		t.Fatal("sumtable arena grew on a second OptimizeBranch")
	}
}

// TestOptimizeJunction: junction smoothing must not regress the
// likelihood and must leave the engine consistent (a from-scratch
// evaluation agrees with the incremental one).
func TestOptimizeJunction(t *testing.T) {
	r := rng.New(31)
	pat := randomPatterns(t, r, 10, 250)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 2)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	before := e.LogLikelihood()
	center := tr.Nodes[0].Neighbors[0] // internal junction next to taxon 0
	if n := e.OptimizeJunction(center); n != 3 {
		t.Fatalf("junction optimized %d branches, want 3", n)
	}
	after := e.LogLikelihood()
	if after < before-1e-9 {
		t.Fatalf("OptimizeJunction regressed lnL: %.9f -> %.9f", before, after)
	}
	e.InvalidateAll()
	scratch := e.LogLikelihood()
	if relDiff(after, scratch) > 1e-10 {
		t.Fatalf("incremental lnL %.12f vs from-scratch %.12f", after, scratch)
	}
}

// TestEdgesDFSCoversAllEdgesAdjacently: the sweep order visits every
// edge exactly once, and each edge (after the first) shares a node with
// some earlier edge — the locality property that keeps refreshViews
// descriptors O(1) during OptimizeAllBranches.
func TestEdgesDFSCoversAllEdgesAdjacently(t *testing.T) {
	r := rng.New(21)
	pat := randomPatterns(t, r, 16, 60)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	sweep := e.edgesDFS()
	if len(sweep) != len(tr.Edges()) {
		t.Fatalf("DFS sweep has %d edges, tree has %d", len(sweep), len(tr.Edges()))
	}
	seen := map[tree.Edge]bool{}
	reached := map[int]bool{}
	for i, ed := range sweep {
		key := ed
		if key.A > key.B {
			key.A, key.B = key.B, key.A
		}
		if seen[key] {
			t.Fatalf("edge (%d,%d) visited twice", ed.A, ed.B)
		}
		seen[key] = true
		if i > 0 && !reached[ed.A] && !reached[ed.B] {
			t.Fatalf("edge %d (%d,%d) touches no previously visited node", i, ed.A, ed.B)
		}
		reached[ed.A], reached[ed.B] = true, true
	}
}

// ---------- OptimizeModel rollback (regression) ----------

// TestRestoreRatesPanicsWithContext is the regression test for the
// silent-rollback bug: restoring exchangeabilities after a rejected
// candidate used to discard the SetRates error, leaving a corrupt
// eigensystem behind every later likelihood. It must now panic with
// the partition and both causes; a valid restore stays silent.
func TestRestoreRatesPanicsWithContext(t *testing.T) {
	m := gtr.Default()
	restoreRates(m, [6]float64{1, 2, 3, 1, 2, 1}, "geneA", nil) // valid: no panic
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("restoreRates with an invalid vector did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "geneA") || !strings.Contains(msg, "restoring") {
			t.Fatalf("panic message lacks context: %v", r)
		}
	}()
	restoreRates(m, [6]float64{1, -2, 3, 1, 2, 1}, "geneA", nil)
}

// TestOptimizeModelStillConverges exercises the fixed rollback path end
// to end: a normal OptimizeModel run (which internally rejects
// out-of-domain candidates and restores) must improve the likelihood
// and leave a usable engine.
func TestOptimizeModelStillConverges(t *testing.T) {
	r := rng.New(17)
	pat := randomPatterns(t, r, 8, 220)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	before := e.LogLikelihood()
	after := e.OptimizeModel(ModelOptConfig{Rates: true, Rounds: 1})
	if after < before-1e-9 {
		t.Fatalf("OptimizeModel regressed lnL: %.6f -> %.6f", before, after)
	}
	if got := e.LogLikelihood(); relDiff(got, after) > 1e-10 {
		t.Fatalf("engine inconsistent after OptimizeModel: %.12f vs %.12f", got, after)
	}
}

// ---------- benchmarks ----------

// benchMakenewzEngine builds the 1288-pattern GAMMA workload the
// makenewz benchmarks run on, with both endpoint views of the (taxon 0)
// edge fresh.
func benchMakenewzEngine(b *testing.B) (*Engine, int, int, int, int) {
	pat := bench1288Patterns(b)
	tr := tree.Random(pat.Names, rng.New(3))
	pool := threads.NewPool(1, pat.NumPatterns())
	b.Cleanup(pool.Close)
	rc, err := gtr.NewGamma(0.8, 4)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(pat, gtr.Default(), rc, Config{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.AttachTree(tr); err != nil {
		b.Fatal(err)
	}
	a := 0
	nb := tr.Nodes[0].Neighbors[0]
	slotA := e.slotOf(a, nb)
	slotB := e.slotOf(nb, a)
	e.refreshViews([2]int{a, slotA}, [2]int{nb, slotB})
	return e, a, slotA, nb, slotB
}

// BenchmarkMakenewzSetup measures phase 1: one eigen-projection pass
// filling the sumtable arena from the endpoint CLVs plus the closing
// derivative reduction at the starting length (paid once per branch, as
// its first Newton iteration).
func BenchmarkMakenewzSetup(b *testing.B) {
	e, a, slotA, nb, slotB := benchMakenewzEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.makenewzSetup(a, slotA, nb, slotB, 0.1)
	}
}

// BenchmarkMakenewzIteration measures phase 2 with the setup amortized:
// one Newton iteration = master-side ExpEigen factors + one
// JobMakenewzCore dispatch of 4-term dot products — the per-iteration
// cost the Newton loop pays 1..32 times per branch.
func BenchmarkMakenewzIteration(b *testing.B) {
	e, a, slotA, nb, slotB := benchMakenewzEngine(b)
	e.makenewzSetup(a, slotA, nb, slotB, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = e.makenewzCore(0.1)
	}
}
