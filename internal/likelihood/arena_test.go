package likelihood

import (
	"math"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/seqgen"
	"raxml/internal/tree"
)

// ---------- golden values: arena layout vs per-slice reference ----------

// refLogLikelihood is an independent reference implementation of the
// engine's likelihood using the PRE-refactor storage scheme: one
// individually allocated []float64 per directed edge, the per-pattern
// layout [pattern*nCat*4 + cat*4 + state], and the generic
// stride-selected kernel. It exists to pin the flat-arena kernels to
// the per-slice golden values.
func refLogLikelihood(tr *tree.Tree, pat *msa.Patterns, model *gtr.Model, rates *gtr.RateCategories, weights []int) float64 {
	nPat := pat.NumPatterns()
	nCat := 1
	if !rates.IsCAT() {
		nCat = rates.NumCats()
	}
	pIndex := func(k, cat int) int {
		if rates.IsCAT() {
			return rates.PatternCategory[k]
		}
		return cat
	}

	// per-directed-edge CLV slices, allocated on demand
	clv := make([][]float64, tr.MaxNodeID()*3)
	scale := make([][]int32, tr.MaxNodeID()*3)
	tip := func(taxon int) []float64 {
		v := make([]float64, nPat*4)
		for k := 0; k < nPat; k++ {
			s := pat.Data[taxon][k]
			for st := 0; st < 4; st++ {
				if s&(1<<uint(st)) != 0 {
					v[k*4+st] = 1
				}
			}
		}
		return v
	}
	slotOf := func(of, at int) int {
		for i, v := range tr.Nodes[of].Neighbors {
			if v == at {
				return i
			}
		}
		panic("not adjacent")
	}

	type view struct {
		vec    []float64
		scale  []int32
		stride int
	}
	var compute func(node, slot int) view
	compute = func(node, slot int) view {
		n := &tr.Nodes[node]
		if n.IsTip() {
			return view{vec: tip(n.Taxon), stride: 4}
		}
		idx := node*3 + slot
		if clv[idx] != nil {
			return view{vec: clv[idx], scale: scale[idx], stride: nCat * 4}
		}
		var ch [2]view
		var pm [2][][16]float64
		j := 0
		for s, v := range n.Neighbors {
			if s == slot || v < 0 {
				continue
			}
			ch[j] = compute(v, slotOf(v, node))
			pm[j] = make([][16]float64, rates.NumCats())
			for c := 0; c < rates.NumCats(); c++ {
				model.P(n.Lengths[s], rates.Rates[c], &pm[j][c])
			}
			j++
		}
		dst := make([]float64, nPat*nCat*4)
		dsc := make([]int32, nPat)
		for k := 0; k < nPat; k++ {
			if weights[k] == 0 {
				continue
			}
			base := k * nCat * 4
			var sc int32
			if ch[0].scale != nil {
				sc += ch[0].scale[k]
			}
			if ch[1].scale != nil {
				sc += ch[1].scale[k]
			}
			maxEntry := 0.0
			for cat := 0; cat < nCat; cat++ {
				pc := pIndex(k, cat)
				pl := &pm[0][pc]
				pr := &pm[1][pc]
				lBase := k * ch[0].stride
				if ch[0].stride != 4 {
					lBase += cat * 4
				}
				rBase := k * ch[1].stride
				if ch[1].stride != 4 {
					rBase += cat * 4
				}
				l0, l1, l2, l3 := ch[0].vec[lBase], ch[0].vec[lBase+1], ch[0].vec[lBase+2], ch[0].vec[lBase+3]
				r0, r1, r2, r3 := ch[1].vec[rBase], ch[1].vec[rBase+1], ch[1].vec[rBase+2], ch[1].vec[rBase+3]
				for s := 0; s < 4; s++ {
					ls := pl[s*4+0]*l0 + pl[s*4+1]*l1 + pl[s*4+2]*l2 + pl[s*4+3]*l3
					rs := pr[s*4+0]*r0 + pr[s*4+1]*r1 + pr[s*4+2]*r2 + pr[s*4+3]*r3
					v := ls * rs
					dst[base+cat*4+s] = v
					if v > maxEntry {
						maxEntry = v
					}
				}
			}
			if maxEntry < scaleThreshold {
				for i := base; i < base+nCat*4; i++ {
					dst[i] *= scaleFactor
				}
				sc++
			}
			dsc[k] = sc
		}
		clv[idx] = dst
		scale[idx] = dsc
		return view{vec: dst, scale: dsc, stride: nCat * 4}
	}

	a := 0
	b := tr.Nodes[0].Neighbors[0]
	va := compute(a, slotOf(a, b))
	vb := compute(b, slotOf(b, a))
	pEval := make([][16]float64, rates.NumCats())
	for c := 0; c < rates.NumCats(); c++ {
		model.P(tr.EdgeLength(a, b), rates.Rates[c], &pEval[c])
	}
	sum := 0.0
	for k := 0; k < nPat; k++ {
		wk := weights[k]
		if wk == 0 {
			continue
		}
		var site float64
		for cat := 0; cat < nCat; cat++ {
			pc := pIndex(k, cat)
			p := &pEval[pc]
			aBase := k * va.stride
			if va.stride != 4 {
				aBase += cat * 4
			}
			bBase := k * vb.stride
			if vb.stride != 4 {
				bBase += cat * 4
			}
			catL := 0.0
			for s := 0; s < 4; s++ {
				as := va.vec[aBase+s]
				if as == 0 {
					continue
				}
				dot := p[s*4+0]*vb.vec[bBase] + p[s*4+1]*vb.vec[bBase+1] +
					p[s*4+2]*vb.vec[bBase+2] + p[s*4+3]*vb.vec[bBase+3]
				catL += model.Freqs[s] * as * dot
			}
			if rates.IsCAT() {
				site = catL
			} else {
				site += rates.Probs[cat] * catL
			}
		}
		logSite := math.Log(math.Max(site, math.SmallestNonzeroFloat64))
		if va.scale != nil {
			logSite -= float64(va.scale[k]) * logScaleFactor
		}
		if vb.scale != nil {
			logSite -= float64(vb.scale[k]) * logScaleFactor
		}
		sum += float64(wk) * logSite
	}
	return sum
}

func goldenAlignment(t *testing.T) *msa.Patterns {
	t.Helper()
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 24, Chars: 600, Seed: 77, TreeScale: 0.6, Alpha: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	return pat
}

// TestArenaMatchesPerSliceGoldenCAT pins the flat-arena kernels to the
// pre-refactor per-slice layout on a fixed seed-generated alignment
// under a CAT treatment with many categories.
func TestArenaMatchesPerSliceGoldenCAT(t *testing.T) {
	pat := goldenAlignment(t)
	r := rng.New(31)
	perSite := make([]float64, pat.NumPatterns())
	for i := range perSite {
		perSite[i] = 0.25 + 2*r.Float64()
	}
	for _, workers := range []int{1, 3} {
		rates := gtr.ClusterCAT(perSite, 8)
		model := gtr.Default()
		tr := tree.Random(pat.Names, rng.New(32))
		e := newEngine(t, pat, model, rates, workers)
		if err := e.AttachTree(tr); err != nil {
			t.Fatal(err)
		}
		got := e.LogLikelihood()
		want := refLogLikelihood(tr, pat, model, rates, pat.Weights)
		if math.Abs(got-want) > 1e-10*math.Abs(want) {
			t.Fatalf("workers=%d: arena CAT %.12f vs per-slice golden %.12f (diff %g)",
				workers, got, want, got-want)
		}
	}
}

// TestArenaMatchesPerSliceGoldenGAMMA is the GAMMA twin, exercising the
// multi-category tiling and the across-category rescaling rule.
func TestArenaMatchesPerSliceGoldenGAMMA(t *testing.T) {
	pat := goldenAlignment(t)
	for _, workers := range []int{1, 3} {
		rates, err := gtr.NewGamma(0.6, 4)
		if err != nil {
			t.Fatal(err)
		}
		model := gtr.Default()
		tr := tree.Random(pat.Names, rng.New(33))
		e := newEngine(t, pat, model, rates, workers)
		if err := e.AttachTree(tr); err != nil {
			t.Fatal(err)
		}
		got := e.LogLikelihood()
		want := refLogLikelihood(tr, pat, model, rates, pat.Weights)
		if math.Abs(got-want) > 1e-10*math.Abs(want) {
			t.Fatalf("workers=%d: arena GAMMA %.12f vs per-slice golden %.12f (diff %g)",
				workers, got, want, got-want)
		}
	}
}

// TestGoldenScalingDeepTree pins the rescaling path (the counters live
// in the flat scale arena) against the reference on a tree deep enough
// to underflow unscaled doubles.
func TestGoldenScalingDeepTree(t *testing.T) {
	r := rng.New(34)
	pat := randomPatterns(t, r, 120, 40)
	tr := tree.Caterpillar(pat.Names)
	tr.ScaleBranchLengths(15)
	model := gtr.JukesCantor()
	rates := gtr.NewUniform(pat.NumPatterns())
	e := newEngine(t, pat, model, rates, 2)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	got := e.LogLikelihood()
	want := refLogLikelihood(tr, pat, model, rates, pat.Weights)
	if math.Abs(got-want) > 1e-10*math.Abs(want) {
		t.Fatalf("deep tree: arena %.12f vs per-slice golden %.12f", got, want)
	}
}

// ---------- invalidation exactness under random SPR sequences ----------

// TestSPRFuzzInvalidationExact drives the engine through a random
// sequence of SPR moves, branch-length edits and evaluations at random
// edges, asserting after every step that the incrementally maintained
// likelihood equals a from-scratch engine's value. This is the
// regression net for the arena's tile rebinding: a stale tile binding
// or a leaked validity flag shows up as a silent likelihood drift. The
// lockstep subtests then pin the precise invalidation of the lazy-SPR
// edits to an invalidate-everything reference, bit for bit.
func TestSPRFuzzInvalidationExact(t *testing.T) {
	r := rng.New(4242)
	pat := randomPatterns(t, r, 16, 120)
	model := gtr.Default()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 3)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	_ = e.LogLikelihood()

	check := func(step int, op string) {
		t.Helper()
		edges := tr.Edges()
		edge := edges[r.Intn(len(edges))]
		got := e.EvaluateEdge(edge.A, edge.B)
		fresh := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
		if err := fresh.AttachTree(tr.Clone()); err != nil {
			t.Fatal(err)
		}
		want := fresh.LogLikelihood()
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Fatalf("step %d (%s): incremental %.12f vs fresh %.12f", step, op, got, want)
		}
	}

	for step := 0; step < 25; step++ {
		switch r.Intn(3) {
		case 0: // SPR: prune a random subtree, regraft into a random edge
			edges := tr.Edges()
			var p *tree.PrunedSubtree
			var err error
			for try := 0; try < 50 && p == nil; try++ {
				edge := edges[r.Intn(len(edges))]
				if tr.Nodes[edge.B].IsTip() {
					continue
				}
				p, err = tr.Prune(edge.A, edge.B)
				if err != nil {
					p = nil
				}
			}
			if p == nil {
				continue
			}
			rem := tr.Edges()
			if err := tr.Regraft(p, rem[r.Intn(len(rem))]); err != nil {
				tr.Restore(p)
				continue
			}
			e.InvalidateAll()
			check(step, "spr")
		case 1: // branch-length edit with precise invalidation
			edges := tr.Edges()
			edge := edges[r.Intn(len(edges))]
			tr.SetEdgeLength(edge.A, edge.B, tr.EdgeLength(edge.A, edge.B)*(0.5+r.Float64()))
			e.InvalidateEdge(edge.A, edge.B)
			check(step, "brlen")
		default: // pure evaluation at a random edge (cache reads only)
			check(step, "eval")
		}
	}

	sprLockstepCases(t)
}

// sprLockstep drives two engines over two copies of one tree through
// `steps` random lazy-SPR moves — dangling prune, a scan of every
// candidate within a random radius, then plug back, or plug + junction
// optimization followed by accept or revert — exactly the edit program
// of search.sprPass. Engine a invalidates precisely (InvalidateEdge /
// InvalidateNode) and scores each prune's candidates with a single
// EvaluateInsertions call; engine b is the reference that invalidates
// everything after every edit and scores them with one one-candidate
// call each. Every scored insertion and every likelihood must agree bit
// for bit: a view that survives an edit holds exactly the values a
// recomputation would produce, and a candidate's partials reduce in the
// same order in a batch as alone.
func sprLockstep(t *testing.T, r *rng.RNG, steps int, a, b *Engine, ta, tb *tree.Tree) {
	t.Helper()
	same := func(step int, what string, x, y float64) {
		t.Helper()
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("step %d (%s): precise %.17g vs invalidate-all %.17g", step, what, x, y)
		}
	}
	if err := a.AttachTree(ta); err != nil {
		t.Fatal(err)
	}
	if err := b.AttachTree(tb); err != nil {
		t.Fatal(err)
	}
	same(-1, "start", a.LogLikelihood(), b.LogLikelihood())
	scans := 0
	var batch []float64
	for step := 0; step < steps; step++ {
		edges := ta.Edges()
		edge := edges[r.Intn(len(edges))]
		root, attach := edge.A, edge.B
		if r.Intn(2) == 0 {
			root, attach = attach, root
		}
		if ta.Nodes[attach].IsTip() {
			continue
		}
		pa, err := ta.DanglingPrune(root, attach)
		if err != nil {
			continue
		}
		pb, err := tb.DanglingPrune(root, attach)
		if err != nil {
			t.Fatal(err)
		}
		a.InvalidateEdge(pa.OrigA, pa.OrigB)
		a.InvalidateNode(pa.Attach)
		b.InvalidateAll()

		cands := ta.RegraftCandidates(pa, 1+r.Intn(8))
		da, db := a.DispatchCount(), b.DispatchCount()
		batch = a.EvaluateInsertions(root, attach, cands, batch)
		for i, c := range cands {
			same(step, "scan", batch[i], b.EvaluateInsertion(root, attach, c.A, c.B))
			scans++
		}
		if da, db = a.DispatchCount()-da, b.DispatchCount()-db; da != 1 || db != int64(len(cands)) {
			t.Fatalf("step %d: %d candidates cost %d dispatches batched and %d one by one, want 1 and %d",
				step, len(cands), da, db, len(cands))
		}
		if r.Intn(4) == 0 {
			ta.PlugBack(pa)
			tb.PlugBack(pb)
			a.InvalidateNode(attach)
			b.InvalidateAll()
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
		a.InvalidateNode(attach)
		b.InvalidateAll()
		a.OptimizeJunction(attach)
		b.OptimizeJunction(attach)
		same(step, "plugged", a.LogLikelihood(), b.LogLikelihood())
		if r.Intn(2) == 0 {
			ta.UnplugKeepDangling(pa, target)
			ta.PlugBack(pa)
			tb.UnplugKeepDangling(pb, target)
			tb.PlugBack(pb)
			a.InvalidateEdge(target.A, target.B)
			a.InvalidateNode(attach)
			b.InvalidateAll()
			same(step, "reverted", a.LogLikelihood(), b.LogLikelihood())
		}
		if step%5 == 4 {
			same(step, "sweep", a.OptimizeAllBranches(1, 0), b.OptimizeAllBranches(1, 0))
		}
		edges = ta.Edges()
		edge = edges[r.Intn(len(edges))]
		same(step, "edge", a.EvaluateEdge(edge.A, edge.B), b.EvaluateEdge(edge.A, edge.B))
	}
	if scans < steps {
		t.Fatalf("only %d insertions scored in %d steps", scans, steps)
	}
	na, nb := a.Counts()
	ra, rb := b.Counts()
	if na >= ra || nb != rb {
		t.Fatalf("precise engine recomputed %d views over %d evaluations, reference %d over %d: want fewer views, same evaluations", na, nb, ra, rb)
	}
}

// sprLockstepCases runs sprLockstep, as subtests, under every rate
// treatment and layout the search runs on: CAT with many categories,
// GAMMA on a 2-worker pool, a 2-partition alignment, and a bootstrap
// weight vector with zero-weight patterns.
func sprLockstepCases(t *testing.T) {
	catRates := []float64{0.3, 0.7, 1.0, 1.6, 2.4}
	cases := []struct {
		name  string
		build func(t *testing.T, r *rng.RNG) (*Engine, []string)
	}{
		{"CAT", func(t *testing.T, r *rng.RNG) (*Engine, []string) {
			pat := randomPatterns(t, r, 14, 150)
			return newEngine(t, pat, gtr.Default(), contentCAT(pat, 0, pat.NumPatterns(), catRates), 1), pat.Names
		}},
		{"GAMMA/T=2", func(t *testing.T, r *rng.RNG) (*Engine, []string) {
			pat := randomPatterns(t, r, 14, 150)
			rc, err := gtr.NewGamma(0.7, 4)
			if err != nil {
				t.Fatal(err)
			}
			return newEngine(t, pat, gtr.Default(), rc, 2), pat.Names
		}},
		{"CAT/2-partition/T=2", func(t *testing.T, r *rng.RNG) (*Engine, []string) {
			a := randomAlignment(t, r, 14, 160)
			e, pat := partitionedEngine(t, a, 2, 2, func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
				return gtr.Default(), contentCAT(pat, pr.Lo, pr.Hi, catRates[:2+pr.Lo%3])
			})
			return e, pat.Names
		}},
		{"CAT/bootstrap-weights", func(t *testing.T, r *rng.RNG) (*Engine, []string) {
			pat := randomPatterns(t, r, 14, 150)
			e := newEngine(t, pat, gtr.Default(), contentCAT(pat, 0, pat.NumPatterns(), catRates), 1)
			w := make([]int, pat.NumPatterns())
			for i := 0; i < len(w); i++ {
				w[r.Intn(len(w))]++ // a resample: about 1/e of the patterns stay at zero
			}
			e.SetWeights(w)
			return e, pat.Names
		}},
	}
	for _, tc := range cases {
		t.Run("lockstep/"+tc.name, func(t *testing.T) {
			// Identical seeds build identical data, models and weights for
			// the two engines; the trees are two copies of one topology.
			a, names := tc.build(t, rng.New(5150))
			b, _ := tc.build(t, rng.New(5150))
			tr := tree.Random(names, rng.New(5151))
			sprLockstep(t, rng.New(5152), 30, a, b, tr, tr.Clone())
		})
	}
}

// ---------- arena bookkeeping regressions ----------

// TestRepeatedAttachTreeNoStaleState is the regression test for the
// ensureArena single-grow fix: repeated AttachTree calls must neither
// leak validity flags (a CLV from tree N observable under tree N+1) nor
// grow the arena (tiles are recycled through the free list).
func TestRepeatedAttachTreeNoStaleState(t *testing.T) {
	r := rng.New(55)
	pat := randomPatterns(t, r, 12, 150)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 2)

	var stable int64
	for i := 0; i < 8; i++ {
		tr := tree.Random(pat.Names, rng.New(int64(100+i)))
		if err := e.AttachTree(tr); err != nil {
			t.Fatal(err)
		}
		for j, v := range e.valid {
			if v {
				t.Fatalf("iteration %d: validity flag %d survived AttachTree", i, j)
			}
		}
		got := e.LogLikelihood()
		fresh := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
		if err := fresh.AttachTree(tr.Clone()); err != nil {
			t.Fatal(err)
		}
		if want := fresh.LogLikelihood(); math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Fatalf("iteration %d: reused engine %.12f vs fresh %.12f", i, got, want)
		}
		if i == 0 {
			stable = e.MemoryBytes()
		} else if m := e.MemoryBytes(); m != stable {
			t.Fatalf("iteration %d: arena grew %d -> %d bytes across AttachTree", i, stable, m)
		}
	}
}

// TestEnsureArenaGrowsForNewNodes covers the bookkeeping grow path:
// when the tree's node arena grows (stepwise addition, SPR scratch
// nodes), the new directed-edge entries must come up unbound and
// invalid in one grow.
func TestEnsureArenaGrowsForNewNodes(t *testing.T) {
	r := rng.New(56)
	pat := randomPatterns(t, r, 8, 60)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	_ = e.LogLikelihood()
	before := len(e.tileOf)

	// Grow the tree's node arena without touching topology.
	id := tr.NewInternal()
	e.ensureArena()
	if len(e.tileOf) != tr.MaxNodeID()*3 {
		t.Fatalf("bookkeeping %d entries, want %d", len(e.tileOf), tr.MaxNodeID()*3)
	}
	if len(e.tileOf) <= before {
		t.Fatal("bookkeeping did not grow with the node arena")
	}
	for i := before; i < len(e.tileOf); i++ {
		if e.tileOf[i] != noTile || e.valid[i] {
			t.Fatalf("new entry %d born bound/valid (tile %d, valid %v)", i, e.tileOf[i], e.valid[i])
		}
	}
	// Old bindings and likelihood survive the grow.
	got := e.LogLikelihood()
	fresh := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	if err := fresh.AttachTree(tr.Clone()); err != nil {
		t.Fatal(err)
	}
	if want := fresh.LogLikelihood(); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("after grow: %.12f vs fresh %.12f", got, want)
	}
	_ = id
}

// TestTileFreeListReuse asserts the free list actually recycles tiles:
// after a full evaluation the tile count is fixed, and re-attaching
// binds the same tiles instead of carving new ones.
func TestTileFreeListReuse(t *testing.T) {
	r := rng.New(57)
	pat := randomPatterns(t, r, 10, 80)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	_ = e.LogLikelihood()
	tiles := e.nTiles
	if tiles == 0 {
		t.Fatal("no tiles bound by a full evaluation")
	}
	for i := 0; i < 5; i++ {
		if err := e.AttachTree(tr); err != nil {
			t.Fatal(err)
		}
		_ = e.LogLikelihood()
		if e.nTiles != tiles {
			t.Fatalf("re-attachment %d carved new tiles: %d -> %d", i, tiles, e.nTiles)
		}
	}
	// The fully populated arena stays within the exact estimate.
	est := EstimateMemoryBytes(pat.NumTaxa(), pat.NumPatterns(), 1)
	if m := e.MemoryBytes(); m > est {
		t.Fatalf("footprint %d exceeds exact estimate %d", m, est)
	}
}
