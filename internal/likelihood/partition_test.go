package likelihood

import (
	"math"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// ---------- helpers ----------

// randomAlignment builds a deterministic random alignment (uniform
// letters: essentially every column is a distinct pattern).
func randomAlignment(t *testing.T, r *rng.RNG, nTaxa, nChars int) *msa.Alignment {
	t.Helper()
	letters := []byte("ACGT")
	a := &msa.Alignment{}
	nm := names(nTaxa)
	for i := 0; i < nTaxa; i++ {
		a.Names = append(a.Names, nm[i])
		row := make([]msa.State, nChars)
		for j := range row {
			row[j] = msa.EncodeChar(letters[r.Intn(4)])
		}
		a.Seqs = append(a.Seqs, row)
	}
	return a
}

// sliceColumns extracts the column span [lo, hi) of an alignment as its
// own alignment — a single gene of a concatenated multi-gene matrix.
func sliceColumns(a *msa.Alignment, lo, hi int) *msa.Alignment {
	out := &msa.Alignment{Names: append([]string(nil), a.Names...)}
	for _, row := range a.Seqs {
		out.Seqs = append(out.Seqs, append([]msa.State(nil), row[lo:hi]...))
	}
	return out
}

// contentCAT derives a CAT treatment whose category of every pattern is
// a pure function of the pattern's column content, so the same column
// gets the same category in differently compressed pattern sets — the
// device that lets golden tests compare a partitioned engine against a
// single-partition reference under a *heterogeneous* CAT assignment.
func contentCAT(pat *msa.Patterns, lo, hi int, rates []float64) *gtr.RateCategories {
	assign := make([]int, hi-lo)
	for k := lo; k < hi; k++ {
		h := uint32(0)
		for i := 0; i < pat.NumTaxa(); i++ {
			h = h*31 + uint32(pat.Data[i][k])
		}
		assign[k-lo] = int(h % uint32(len(rates)))
	}
	return &gtr.RateCategories{
		Rates:           append([]float64(nil), rates...),
		PatternCategory: assign,
	}
}

// partitionedEngine builds an engine over nParts equal contiguous
// partitions of the alignment, with per-partition model/rate instances
// supplied by mk (called once per partition with its pattern span).
func partitionedEngine(t *testing.T, a *msa.Alignment, nParts, workers int,
	mk func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories)) (*Engine, *msa.Patterns) {
	t.Helper()
	pat, err := msa.CompressPartitioned(a, msa.ContiguousPartitions(a.NumChars(), nParts))
	if err != nil {
		t.Fatal(err)
	}
	set := &gtr.PartitionSet{}
	for _, pr := range pat.PartRanges() {
		m, rc := mk(pat, pr)
		set.Models = append(set.Models, m)
		set.Rates = append(set.Rates, rc)
	}
	pool := threads.NewPoolPartitioned(workers, pat.Weights, pat.PartStarts(), 16)
	t.Cleanup(pool.Close)
	e, err := NewPartitioned(pat, set, Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return e, pat
}

// ---------- golden equivalence: shared model across partitions ----------

// TestPartitionedSharedModelGoldenCAT is the acceptance golden test: a
// 2-partition alignment whose partitions share one model must reproduce
// the single-partition log-likelihood to 1e-10, under a heterogeneous
// CAT assignment — and the partitioned full-tree relikelihood must cost
// exactly ONE pool dispatch.
func TestPartitionedSharedModelGoldenCAT(t *testing.T) {
	a := randomAlignment(t, rng.New(411), 24, 600)
	catRates := []float64{0.4, 1.0, 2.3}
	model := gtr.Default()
	tr := tree.Random(a.Names, rng.New(412))

	single, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	ref := newEngine(t, single, model.Clone(), contentCAT(single, 0, single.NumPatterns(), catRates), 1)
	if err := ref.AttachTree(tr.Clone()); err != nil {
		t.Fatal(err)
	}
	want := ref.LogLikelihood()

	for _, workers := range []int{1, 3} {
		e, _ := partitionedEngine(t, a, 2, workers, func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
			return model.Clone(), contentCAT(pat, pr.Lo, pr.Hi, catRates)
		})
		if err := e.AttachTree(tr.Clone()); err != nil {
			t.Fatal(err)
		}
		e.InvalidateAll()
		d0 := e.DispatchCount()
		got := e.LogLikelihood()
		if d := e.DispatchCount() - d0; d != 1 {
			t.Fatalf("workers=%d: partitioned full-tree relikelihood cost %d dispatches, want exactly 1", workers, d)
		}
		if math.Abs(got-want) > 1e-10*math.Abs(want) {
			t.Fatalf("workers=%d: partitioned CAT %.12f vs single-partition %.12f (diff %g)",
				workers, got, want, got-want)
		}
	}
}

// TestPartitionedSharedModelGoldenGAMMA is the GAMMA twin of the
// acceptance golden test (shared alpha, shared model).
func TestPartitionedSharedModelGoldenGAMMA(t *testing.T) {
	a := randomAlignment(t, rng.New(413), 24, 600)
	model := gtr.Default()
	tr := tree.Random(a.Names, rng.New(414))

	single, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	refRates, err := gtr.NewGamma(0.7, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := newEngine(t, single, model.Clone(), refRates, 1)
	if err := ref.AttachTree(tr.Clone()); err != nil {
		t.Fatal(err)
	}
	want := ref.LogLikelihood()

	for _, workers := range []int{1, 3} {
		e, _ := partitionedEngine(t, a, 2, workers, func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
			rc, err := gtr.NewGamma(0.7, 4)
			if err != nil {
				t.Fatal(err)
			}
			return model.Clone(), rc
		})
		if err := e.AttachTree(tr.Clone()); err != nil {
			t.Fatal(err)
		}
		e.InvalidateAll()
		d0 := e.DispatchCount()
		got := e.LogLikelihood()
		if d := e.DispatchCount() - d0; d != 1 {
			t.Fatalf("workers=%d: partitioned full-tree relikelihood cost %d dispatches, want exactly 1", workers, d)
		}
		if math.Abs(got-want) > 1e-10*math.Abs(want) {
			t.Fatalf("workers=%d: partitioned GAMMA %.12f vs single-partition %.12f (diff %g)",
				workers, got, want, got-want)
		}
	}
}

// ---------- independent per-partition models ----------

// TestPartitionedIndependentModelsSum pins the defining identity of the
// partitioned likelihood: with per-gene models the total equals the sum
// of the per-gene log-likelihoods computed by independent single-gene
// engines on the same topology (branch lengths linked).
func TestPartitionedIndependentModelsSum(t *testing.T) {
	a := randomAlignment(t, rng.New(421), 16, 300)
	tr := tree.Random(a.Names, rng.New(422))
	m1, err := gtr.New([6]float64{1.2, 2.5, 0.8, 1.1, 3.0, 1}, [4]float64{0.3, 0.2, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := gtr.New([6]float64{0.7, 4.0, 1.5, 0.9, 2.0, 1}, [4]float64{0.2, 0.35, 0.15, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	models := []*gtr.Model{m1, m2}

	for _, tc := range []struct {
		name  string
		rates func(n int, part int) *gtr.RateCategories
	}{
		{"CAT", func(n, part int) *gtr.RateCategories { return gtr.NewUniform(n) }},
		{"GAMMA", func(n, part int) *gtr.RateCategories {
			rc, err := gtr.NewGamma([]float64{0.5, 1.8}[part], 4)
			if err != nil {
				t.Fatal(err)
			}
			return rc
		}},
	} {
		// Reference: one single-gene engine per column span.
		want := 0.0
		for part, span := range [][2]int{{0, 150}, {150, 300}} {
			gene := sliceColumns(a, span[0], span[1])
			gp, err := msa.Compress(gene)
			if err != nil {
				t.Fatal(err)
			}
			ge := newEngine(t, gp, models[part].Clone(), tc.rates(gp.NumPatterns(), part), 1)
			if err := ge.AttachTree(tr.Clone()); err != nil {
				t.Fatal(err)
			}
			want += ge.LogLikelihood()
		}

		e, _ := partitionedEngine(t, a, 2, 3, func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
			part := 0
			if pr.Lo > 0 {
				part = 1
			}
			return models[part].Clone(), tc.rates(pr.Len(), part)
		})
		if err := e.AttachTree(tr.Clone()); err != nil {
			t.Fatal(err)
		}
		got := e.LogLikelihood()
		if math.Abs(got-want) > 1e-10*math.Abs(want) {
			t.Fatalf("%s: partitioned %.12f vs per-gene sum %.12f (diff %g)", tc.name, got, want, got-want)
		}

		// The per-partition components must match the per-gene engines.
		comps := e.PartitionLogLikelihoods(nil)
		sum := 0.0
		for _, c := range comps {
			sum += c
		}
		if math.Abs(sum-got) > 1e-9*math.Abs(got) {
			t.Fatalf("%s: component sum %.12f vs total %.12f", tc.name, sum, got)
		}
	}
}

// ---------- SPR fuzz on a partitioned engine ----------

// TestPartitionedSPRFuzzInvalidationExact drives a 3-partition engine
// through random SPR moves, branch-length edits and evaluations,
// asserting after every step that the incrementally maintained
// likelihood equals a from-scratch partitioned engine's value — the
// regression net for tile rebinding and validity tracking over the
// segmented arena.
func TestPartitionedSPRFuzzInvalidationExact(t *testing.T) {
	r := rng.New(4343)
	a := randomAlignment(t, r, 14, 150)
	tr := tree.Random(a.Names, r)
	mk := func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
		alpha := 0.4 + 0.5*float64(pr.Lo%7)
		rc, err := gtr.NewGamma(alpha, 4)
		if err != nil {
			t.Fatal(err)
		}
		return gtr.Default(), rc
	}
	e, _ := partitionedEngine(t, a, 3, 3, mk)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	_ = e.LogLikelihood()

	check := func(step int, op string) {
		t.Helper()
		edges := tr.Edges()
		edge := edges[r.Intn(len(edges))]
		got := e.EvaluateEdge(edge.A, edge.B)
		fresh, _ := partitionedEngine(t, a, 3, 1, mk)
		if err := fresh.AttachTree(tr.Clone()); err != nil {
			t.Fatal(err)
		}
		want := fresh.LogLikelihood()
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Fatalf("step %d (%s): incremental %.12f vs fresh %.12f", step, op, got, want)
		}
	}

	for step := 0; step < 15; step++ {
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
			// Candidates exclude edges inside the pruned component
			// (regrafting there would create a cycle).
			cands := tr.RegraftCandidates(p, 1<<20)
			if len(cands) == 0 {
				tr.Restore(p)
				continue
			}
			if err := tr.Regraft(p, cands[r.Intn(len(cands))]); err != nil {
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
}

// ---------- parallel P-matrix fill ----------

// TestParallelPFillMatchesSerial pins the forked master-side matrix
// fill (multi-worker pools) to the serial fill: the likelihood over a
// descriptor forked across the crew must match a single-worker engine,
// and still cost one dispatch — the fork is not a counted one.
func TestParallelPFillMatchesSerial(t *testing.T) {
	a := randomAlignment(t, rng.New(431), 40, 250) // 38 internal CLV entries per view
	tr := tree.Random(a.Names, rng.New(432))
	mk := func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
		rc, err := gtr.NewGamma(0.9, 4)
		if err != nil {
			t.Fatal(err)
		}
		return gtr.Default(), rc
	}
	serial, _ := partitionedEngine(t, a, 2, 1, mk)
	if err := serial.AttachTree(tr.Clone()); err != nil {
		t.Fatal(err)
	}
	want := serial.LogLikelihood()

	par, _ := partitionedEngine(t, a, 2, 4, mk)
	if err := par.AttachTree(tr.Clone()); err != nil {
		t.Fatal(err)
	}
	if n := len(par.trav); n != 0 {
		t.Fatalf("descriptor not empty before evaluation: %d", n)
	}
	d0 := par.DispatchCount()
	got := par.LogLikelihood()
	if d := par.DispatchCount() - d0; d != 1 {
		t.Fatalf("parallel P-fill path cost %d dispatches, want 1", d)
	}
	if min := 2 * pFillGrain * par.pool.Workers(); len(par.trav) < min {
		t.Fatalf("descriptor of %d entries did not give every worker a fill chunk (want >= %d)",
			len(par.trav), min)
	}
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("parallel fill %.12f vs serial %.12f", got, want)
	}
}

// ---------- per-partition optimizers ----------

// TestPartitionedOptimizersDiverge checks that model optimization on a
// partitioned engine is genuinely per-partition: genes simulated under
// different conditions end up with different optimized parameters, the
// likelihood never degrades, and the engine's treatment pointers stay
// stable (external holders keep observing the optimized state).
func TestPartitionedOptimizersDiverge(t *testing.T) {
	r := rng.New(441)
	// Gene 0: plain random columns. Gene 1: strongly AT-biased columns.
	a := randomAlignment(t, r, 10, 120)
	atLetters := []byte("ATAT")
	for i := range a.Seqs {
		for j := 60; j < 120; j++ {
			if r.Intn(4) != 0 {
				a.Seqs[i][j] = msa.EncodeChar(atLetters[r.Intn(4)])
			}
		}
	}
	tr := tree.Random(a.Names, rng.New(442))
	e, _ := partitionedEngine(t, a, 2, 2, func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
		rc, err := gtr.NewGamma(1.0, 4)
		if err != nil {
			t.Fatal(err)
		}
		return gtr.Default(), rc
	})
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	rates0 := e.PartitionRates(0)
	rates1 := e.PartitionRates(1)

	e.EstimateEmpiricalFreqs()
	f0 := e.PartitionModel(0).Freqs
	f1 := e.PartitionModel(1).Freqs
	if f0 == f1 {
		t.Fatalf("empirical frequencies identical across differently composed genes: %v", f0)
	}
	if f1[0]+f1[3] <= f0[0]+f0[3] {
		t.Fatalf("AT-biased gene got AT mass %.3f <= %.3f", f1[0]+f1[3], f0[0]+f0[3])
	}

	before := e.LogLikelihood()
	after := e.OptimizeModel(ModelOptConfig{Rates: true, Alpha: true, Rounds: 1})
	if after < before-1e-6 {
		t.Fatalf("OptimizeModel degraded lnL: %.6f -> %.6f", before, after)
	}
	if e.PartitionRates(0) != rates0 || e.PartitionRates(1) != rates1 {
		t.Fatal("optimization replaced the rate-treatment instances instead of mutating them")
	}
}

// TestPartitionedPerSiteRatesCAT runs CAT per-site rate estimation on a
// partitioned engine: the result must not degrade the likelihood, every
// partition's assignment must stay locally indexed, and rate-treatment
// pointers must stay stable.
func TestPartitionedPerSiteRatesCAT(t *testing.T) {
	a := randomAlignment(t, rng.New(451), 12, 200)
	tr := tree.Random(a.Names, rng.New(452))
	e, pat := partitionedEngine(t, a, 2, 2, func(p *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
		return gtr.Default(), gtr.NewUniform(pr.Len())
	})
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	r0, r1 := e.PartitionRates(0), e.PartitionRates(1)
	before := e.LogLikelihood()
	after := e.OptimizePerSiteRates(8, 6)
	if after < before-1e-6 {
		t.Fatalf("OptimizePerSiteRates degraded lnL: %.6f -> %.6f", before, after)
	}
	if e.PartitionRates(0) != r0 || e.PartitionRates(1) != r1 {
		t.Fatal("per-site rate optimization replaced the rate-treatment instances")
	}
	for i, pr := range pat.PartRanges() {
		rc := e.PartitionRates(i)
		if len(rc.PatternCategory) != pr.Len() {
			t.Fatalf("partition %d assignment covers %d patterns, want %d (local indexing)",
				i, len(rc.PatternCategory), pr.Len())
		}
		for _, c := range rc.PatternCategory {
			if c < 0 || c >= rc.NumCats() {
				t.Fatalf("partition %d has out-of-range category %d of %d", i, c, rc.NumCats())
			}
		}
	}
	// The optimized engine still agrees with a fresh engine built from
	// the optimized state (validity bookkeeping survived the sweeps).
	got := e.LogLikelihood()
	set := &gtr.PartitionSet{
		Models: []*gtr.Model{e.PartitionModel(0).Clone(), e.PartitionModel(1).Clone()},
		Rates:  []*gtr.RateCategories{r0.Clone(), r1.Clone()},
	}
	fresh, err := NewPartitioned(pat, set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.AttachTree(tr.Clone()); err != nil {
		t.Fatal(err)
	}
	if want := fresh.LogLikelihood(); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("optimized engine %.12f vs fresh rebuild %.12f", got, want)
	}
}

// ---------- construction and memory accounting ----------

func TestNewPartitionedValidation(t *testing.T) {
	a := randomAlignment(t, rng.New(461), 8, 60)
	pat, err := msa.CompressPartitioned(a, msa.ContiguousPartitions(60, 2))
	if err != nil {
		t.Fatal(err)
	}
	pr := pat.PartRanges()
	// Mixed treatments rejected.
	g, err := gtr.NewGamma(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	set := &gtr.PartitionSet{
		Models: []*gtr.Model{gtr.Default(), gtr.Default()},
		Rates:  []*gtr.RateCategories{g, gtr.NewUniform(pr[1].Len())},
	}
	if _, err := NewPartitioned(pat, set, Config{}); err == nil {
		t.Fatal("mixed CAT/GAMMA set accepted")
	}
	// Wrong CAT assignment length rejected.
	set.Rates = []*gtr.RateCategories{gtr.NewUniform(pr[0].Len() + 1), gtr.NewUniform(pr[1].Len())}
	if _, err := NewPartitioned(pat, set, Config{}); err == nil {
		t.Fatal("missized CAT assignment accepted")
	}
	// Wrong partition count rejected.
	set.Rates = []*gtr.RateCategories{gtr.NewUniform(pat.NumPatterns())}
	set.Models = set.Models[:1]
	if _, err := NewPartitioned(pat, set, Config{}); err == nil {
		t.Fatal("partition count mismatch accepted")
	}
}

// TestNewIgnoresPartStartsForStripeSnapping is the regression test for
// stripe alignment under New(): a single-partition engine over a
// *partitioned* Patterns lays out ONE tile segment, so stripe
// boundaries must snap to global 16-pattern multiples — NOT to the
// pattern set's partition starts, which are mid-cache-line in that
// layout and would put two workers on one line.
func TestNewIgnoresPartStartsForStripeSnapping(t *testing.T) {
	a := randomAlignment(t, rng.New(481), 8, 600)
	// Odd split: partition boundaries land off the 16-pattern grid.
	defs := []msa.PartitionDef{
		{ModelName: "DNA", Name: "g0", Ranges: []msa.SiteRange{{Lo: 0, Hi: 203, Stride: 1}}},
		{ModelName: "DNA", Name: "g1", Ranges: []msa.SiteRange{{Lo: 203, Hi: 600, Stride: 1}}},
	}
	pat, err := msa.CompressPartitioned(a, defs)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pat.PartRanges()[1:] {
		if pr.Lo%16 == 0 {
			t.Skipf("partition start %d landed on the quantum grid; probe needs retuning", pr.Lo)
		}
	}
	pool := threads.NewPool(4, pat.NumPatterns())
	defer pool.Close()
	if _, err := New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), Config{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	for i, r := range pool.Ranges() {
		if i < pool.Workers()-1 && r.Hi%16 != 0 {
			t.Fatalf("worker %d: boundary %d not a global 16-multiple — stripes snapped to partition starts of a layout with one segment", i, r.Hi)
		}
	}
}

// TestPartitionedMemoryEstimateExact pins MemoryBytes to the
// partitioned estimate: segmented tiles must stay within (and fully
// populated, equal to) the exact prediction.
func TestPartitionedMemoryEstimateExact(t *testing.T) {
	a := randomAlignment(t, rng.New(471), 10, 90)
	e, pat := partitionedEngine(t, a, 3, 1, func(p *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
		return gtr.Default(), gtr.NewUniform(pr.Len())
	})
	tr := tree.Random(a.Names, rng.New(472))
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	_ = e.LogLikelihood()
	sizes := make([]int, 0, 3)
	for _, pr := range pat.PartRanges() {
		sizes = append(sizes, pr.Len())
	}
	est := EstimateMemoryBytesPartitioned(pat.NumTaxa(), sizes, 1)
	if m := e.MemoryBytes(); m > est {
		t.Fatalf("footprint %d exceeds exact partitioned estimate %d", m, est)
	}
	// The single-partition wrapper is the one-element special case.
	if EstimateMemoryBytes(10, 90, 4) != EstimateMemoryBytesPartitioned(10, []int{90}, 4) {
		t.Fatal("EstimateMemoryBytes disagrees with its partitioned generalization")
	}
}
