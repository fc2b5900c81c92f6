package likelihood

import (
	"math"
	"sync"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/tree"
)

// withMemoBypass builds an engine with the matrix memo bypassed.
func withMemoBypass(build func() *Engine) *Engine {
	SetMemoBypass(true)
	defer SetMemoBypass(false)
	return build()
}

// sameMatrices requires every transition-matrix block the last job of
// the two engines read — the descriptor's per-entry blocks, the edge
// block, the pendant block and the scan halves — to agree bit for bit.
func sameMatrices(t *testing.T, step int, what string, a, b *Engine) {
	t.Helper()
	cmp := func(name string, x, y [][16]float64) {
		t.Helper()
		if len(x) != len(y) {
			t.Fatalf("step %d (%s): %s has %d matrices with the memo, %d without", step, what, name, len(x), len(y))
		}
		for i := range x {
			for j := range x[i] {
				if math.Float64bits(x[i][j]) != math.Float64bits(y[i][j]) {
					t.Fatalf("step %d (%s): %s[%d][%d] is %.17g with the memo, %.17g computed", step, what, name, i, j, x[i][j], y[i][j])
				}
			}
		}
	}
	if len(a.trav) != len(b.trav) {
		t.Fatalf("step %d (%s): descriptors of %d and %d entries", step, what, len(a.trav), len(b.trav))
	}
	for i := range a.trav {
		cmp("pL", a.trav[i].pL, b.trav[i].pL)
		cmp("pR", a.trav[i].pR, b.trav[i].pR)
	}
	cmp("pEval", a.pEval, b.pEval)
	cmp("pPend", a.pPend, b.pPend)
	cmp("scanP", a.scanP, b.scanP)
}

// memoLockstep drives a memoized engine and a bypassed twin through the
// edit program of search.sprPass — dangling prune, a batched scan, plug
// back or plug + junction optimization and accept or revert — interleaved
// with everything that moves the memo's validity: model optimization,
// per-site rate re-clustering (the category count changes), bootstrap
// re-weighting and a fresh tree. Every matrix block, every score and every
// branch length must agree bit for bit.
func memoLockstep(t *testing.T, r *rng.RNG, steps int, a, b *Engine, names []string) {
	t.Helper()
	same := func(step int, what string, x, y float64) {
		t.Helper()
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("step %d (%s): %.17g with the memo, %.17g without", step, what, x, y)
		}
		sameMatrices(t, step, what, a, b)
	}
	ta := tree.Random(names, rng.New(6161))
	tb := ta.Clone()
	attach := func() {
		if err := a.AttachTree(ta); err != nil {
			t.Fatal(err)
		}
		if err := b.AttachTree(tb); err != nil {
			t.Fatal(err)
		}
	}
	attach()
	same(-1, "start", a.LogLikelihood(), b.LogLikelihood())
	var sa, sb []float64
	for step := 0; step < steps; step++ {
		switch {
		case step%11 == 5:
			cfg := ModelOptConfig{Rates: true, Alpha: true, Rounds: 1, Tol: 1e-2}
			same(step, "model", a.OptimizeModel(cfg), b.OptimizeModel(cfg))
		case step%11 == 8:
			same(step, "per-site rates", a.OptimizePerSiteRates(2+step%4, 6), b.OptimizePerSiteRates(2+step%4, 6))
		case step%13 == 10:
			w := make([]int, len(a.Weights()))
			for i := 0; i < len(w); i++ {
				w[r.Intn(len(w))]++
			}
			a.SetWeights(w)
			b.SetWeights(w)
			same(step, "bootstrap weights", a.LogLikelihood(), b.LogLikelihood())
		case step%17 == 16:
			ta = tree.Random(names, rng.New(int64(7000+step)))
			tb = ta.Clone()
			attach()
			same(step, "new tree", a.LogLikelihood(), b.LogLikelihood())
		}
		edges := ta.Edges()
		edge := edges[r.Intn(len(edges))]
		root, at := edge.A, edge.B
		if r.Intn(2) == 0 {
			root, at = at, root
		}
		if ta.Nodes[at].IsTip() {
			continue
		}
		pa, err := ta.DanglingPrune(root, at)
		if err != nil {
			continue
		}
		pb, err := tb.DanglingPrune(root, at)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*Engine{a, b} {
			e.InvalidateEdge(pa.OrigA, pa.OrigB)
			e.InvalidateNode(pa.Attach)
		}
		cands := ta.RegraftCandidates(pa, 1+r.Intn(8))
		sa = a.EvaluateInsertions(root, at, cands, sa)
		sb = b.EvaluateInsertions(root, at, cands, sb)
		for i := range cands {
			same(step, "scan", sa[i], sb[i])
		}
		if r.Intn(4) == 0 {
			ta.PlugBack(pa)
			tb.PlugBack(pb)
			a.InvalidateNode(at)
			b.InvalidateNode(at)
			same(step, "plug back", a.LogLikelihood(), b.LogLikelihood())
			continue
		}
		target := cands[r.Intn(len(cands))]
		if err := ta.Plug(pa, target); err != nil {
			t.Fatal(err)
		}
		if err := tb.Plug(pb, target); err != nil {
			t.Fatal(err)
		}
		a.InvalidateNode(at)
		b.InvalidateNode(at)
		a.OptimizeJunction(at)
		b.OptimizeJunction(at)
		same(step, "plugged", a.LogLikelihood(), b.LogLikelihood())
		if r.Intn(2) == 0 {
			ta.UnplugKeepDangling(pa, target)
			ta.PlugBack(pa)
			tb.UnplugKeepDangling(pb, target)
			tb.PlugBack(pb)
			for _, e := range []*Engine{a, b} {
				e.InvalidateEdge(target.A, target.B)
				e.InvalidateNode(at)
			}
			same(step, "reverted", a.LogLikelihood(), b.LogLikelihood())
		}
		if step%5 == 4 {
			same(step, "sweep", a.OptimizeAllBranches(1, 0), b.OptimizeAllBranches(1, 0))
		}
		for _, ed := range ta.Edges() {
			if x, y := ta.EdgeLength(ed.A, ed.B), tb.EdgeLength(ed.A, ed.B); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("step %d: edge (%d, %d) is %.17g long with the memo, %.17g without", step, ed.A, ed.B, x, y)
			}
		}
	}
	if a.memo.hits == 0 || b.memo.hits != 0 || b.memo.blocks != nil {
		t.Fatalf("memo answered %d lookups, the bypassed twin %d (its table holds %d matrices)", a.memo.hits, b.memo.hits, len(b.memo.blocks))
	}
}

// TestMemoLockstep runs memoLockstep under the treatments and layouts the
// search runs on. The 60-step CAT walk on 14 taxa overflows the 84-block
// budget several times, so the reset path is part of what stays equal.
func TestMemoLockstep(t *testing.T) {
	catRates := []float64{0.3, 0.7, 1.0, 1.6, 2.4}
	cases := []struct {
		name   string
		steps  int
		resets bool
		build  func(t *testing.T, r *rng.RNG) (*Engine, []string)
	}{
		{"CAT", 60, true, func(t *testing.T, r *rng.RNG) (*Engine, []string) {
			pat := randomPatterns(t, r, 14, 150)
			return newEngine(t, pat, gtr.Default(), contentCAT(pat, 0, pat.NumPatterns(), catRates), 1), pat.Names
		}},
		{"GAMMA/T=2", 40, false, func(t *testing.T, r *rng.RNG) (*Engine, []string) {
			pat := randomPatterns(t, r, 14, 150)
			rc, err := gtr.NewGamma(0.7, 4)
			if err != nil {
				t.Fatal(err)
			}
			return newEngine(t, pat, gtr.Default(), rc, 2), pat.Names
		}},
		{"CAT/3-partition/T=2", 40, false, func(t *testing.T, r *rng.RNG) (*Engine, []string) {
			a := randomAlignment(t, r, 14, 180)
			e, pat := partitionedEngine(t, a, 3, 2, func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
				return gtr.Default(), contentCAT(pat, pr.Lo, pr.Hi, catRates[:2+pr.Lo%3])
			})
			return e, pat.Names
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, names := tc.build(t, rng.New(5150))
			b := withMemoBypass(func() *Engine { e, _ := tc.build(t, rng.New(5150)); return e })
			memoLockstep(t, rng.New(5153), tc.steps, a, b, names)
			if tc.resets && a.memo.resets == 0 {
				t.Fatalf("the walk never filled the %d-block budget", a.memo.budget)
			}
		})
	}
}

// TestMemoBudgetIsCounted pins the memo's footprint: MemoryBytes grows by
// exactly the block budget — memoBlocksPerTaxon blocks of totalCats
// matrices per taxon — once the first matrix is filled, and not again.
func TestMemoBudgetIsCounted(t *testing.T) {
	pat := randomPatterns(t, rng.New(31), 12, 80)
	rc, err := gtr.NewGamma(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, pat, gtr.Default(), rc, 1)
	bare := withMemoBypass(func() *Engine { return newEngine(t, pat, gtr.Default(), rc, 1) })
	tr := tree.Random(pat.Names, rng.New(32))
	for _, x := range []*Engine{e, bare} {
		if err := x.AttachTree(tr.Clone()); err != nil {
			t.Fatal(err)
		}
		x.LogLikelihood()
	}
	want := int64(memoBlocksPerTaxon*12*4) * 16 * 8
	if got := e.MemoryBytes() - bare.MemoryBytes(); got != want {
		t.Fatalf("memo accounts for %d bytes, want %d", got, want)
	}
	before := e.MemoryBytes()
	for i := 0; i < 50; i++ {
		e.InvalidateAll()
		e.LogLikelihood()
	}
	if got := e.MemoryBytes(); got != before {
		t.Fatalf("footprint moved from %d to %d bytes over 50 model epochs", before, got)
	}
}

// TestMemoPerEngineConcurrent runs two engines from two goroutines at
// once — the serve_mix shape: two runs of one process, one engine each.
// The memo is per engine and lock-free, so under -race this is the test
// that it shares nothing; both must score what a lone engine scores.
func TestMemoPerEngineConcurrent(t *testing.T) {
	pat := randomPatterns(t, rng.New(41), 12, 120)
	tr := tree.Random(pat.Names, rng.New(42))
	program := func(e *Engine) []float64 {
		own := tr.Clone()
		if err := e.AttachTree(own); err != nil {
			t.Error(err)
			return nil
		}
		var out []float64
		for i := 0; i < 20; i++ {
			out = append(out, e.OptimizeAllBranches(1, 0))
			edge := own.Edges()[i%len(own.Edges())]
			own.SetEdgeLength(edge.A, edge.B, own.EdgeLength(edge.A, edge.B)*1.25)
			e.InvalidateEdge(edge.A, edge.B)
			out = append(out, e.LogLikelihood())
		}
		return out
	}
	build := func() *Engine { return newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 2) }
	want := program(build())
	engines := []*Engine{build(), build()}
	got := make([][]float64, len(engines))
	var wg sync.WaitGroup
	for i, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = program(e)
		}()
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) != len(want) {
			t.Fatalf("engine %d produced %d values, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("engine %d, value %d: %.17g concurrently, %.17g alone", i, j, got[i][j], want[j])
			}
		}
	}
}
