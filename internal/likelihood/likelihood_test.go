package likelihood

import (
	"math"
	"runtime"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// ---------- helpers ----------

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	return out
}

func randomPatterns(t testing.TB, r *rng.RNG, nTaxa, nChars int) *msa.Patterns {
	t.Helper()
	letters := []byte("ACGT")
	a := &msa.Alignment{}
	for i := 0; i < nTaxa; i++ {
		a.Names = append(a.Names, names(nTaxa)[i])
		row := make([]msa.State, nChars)
		for j := range row {
			row[j] = msa.EncodeChar(letters[r.Intn(4)])
		}
		a.Seqs = append(a.Seqs, row)
	}
	p, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newEngine(t *testing.T, pat *msa.Patterns, model *gtr.Model, rates *gtr.RateCategories, workers int) *Engine {
	t.Helper()
	pool := threads.NewPool(workers, pat.NumPatterns())
	t.Cleanup(pool.Close)
	e, err := New(pat, model, rates, Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// bruteForceLL computes the log-likelihood by explicit enumeration of
// all internal (and ambiguous tip) state assignments — an independent
// implementation of the likelihood the engine must match.
func bruteForceLL(tr *tree.Tree, pat *msa.Patterns, model *gtr.Model, rates *gtr.RateCategories, weights []int) float64 {
	type dirEdge struct {
		parent, child int
		length        float64
	}
	// Root at tip 0; orient edges away from it.
	var edges []dirEdge
	var walk func(node, parent int)
	walk = func(node, parent int) {
		for _, v := range tr.Nodes[node].Neighbors {
			if v >= 0 && v != parent {
				edges = append(edges, dirEdge{node, v, tr.EdgeLength(node, v)})
				walk(v, node)
			}
		}
	}
	walk(0, -1)

	nodeIDs := []int{0}
	for _, e := range edges {
		nodeIDs = append(nodeIDs, e.child)
	}
	idxOf := map[int]int{}
	for i, id := range nodeIDs {
		idxOf[id] = i
	}

	allowed := func(nodeID, pattern int) []int {
		n := &tr.Nodes[nodeID]
		if !n.IsTip() {
			return []int{0, 1, 2, 3}
		}
		s := pat.Data[n.Taxon][pattern]
		var out []int
		for st := 0; st < 4; st++ {
			if s&(1<<uint(st)) != 0 {
				out = append(out, st)
			}
		}
		return out
	}

	patternLike := func(pattern int, rate float64) float64 {
		// precompute P per edge for this rate
		ps := make([][16]float64, len(edges))
		for i, e := range edges {
			model.P(e.length, rate, &ps[i])
		}
		states := make([]int, len(nodeIDs))
		var rec func(pos int) float64
		rec = func(pos int) float64 {
			if pos == len(nodeIDs) {
				l := model.Freqs[states[0]]
				for i, e := range edges {
					l *= ps[i][states[idxOf[e.parent]]*4+states[idxOf[e.child]]]
				}
				return l
			}
			sum := 0.0
			for _, st := range allowed(nodeIDs[pos], pattern) {
				states[pos] = st
				sum += rec(pos + 1)
			}
			return sum
		}
		return rec(0)
	}

	total := 0.0
	for k := 0; k < pat.NumPatterns(); k++ {
		if weights[k] == 0 {
			continue
		}
		var site float64
		if rates.IsCAT() {
			site = patternLike(k, rates.Rates[rates.PatternCategory[k]])
		} else {
			for c, rate := range rates.Rates {
				site += rates.Probs[c] * patternLike(k, rate)
			}
		}
		total += float64(weights[k]) * math.Log(site)
	}
	return total
}

// ---------- correctness against brute force ----------

func TestMatchesBruteForceJC(t *testing.T) {
	r := rng.New(101)
	pat := randomPatterns(t, r, 5, 40)
	model := gtr.JukesCantor()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 1)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	got := e.LogLikelihood()
	want := bruteForceLL(tr, pat, model, rates, pat.Weights)
	if math.Abs(got-want) > 1e-8*math.Abs(want) {
		t.Fatalf("engine %.10f vs brute force %.10f", got, want)
	}
}

func TestMatchesBruteForceGTR(t *testing.T) {
	r := rng.New(102)
	pat := randomPatterns(t, r, 6, 30)
	model, err := gtr.New(
		[6]float64{1.2, 3.5, 0.8, 0.9, 4.1, 1},
		[4]float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 2)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	got := e.LogLikelihood()
	want := bruteForceLL(tr, pat, model, rates, pat.Weights)
	if math.Abs(got-want) > 1e-8*math.Abs(want) {
		t.Fatalf("engine %.10f vs brute force %.10f", got, want)
	}
}

func TestMatchesBruteForceGamma(t *testing.T) {
	r := rng.New(103)
	pat := randomPatterns(t, r, 5, 25)
	model := gtr.JukesCantor()
	rates, err := gtr.NewGamma(0.7, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 1)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	got := e.LogLikelihood()
	want := bruteForceLL(tr, pat, model, rates, pat.Weights)
	if math.Abs(got-want) > 1e-8*math.Abs(want) {
		t.Fatalf("engine %.10f vs brute force %.10f", got, want)
	}
}

func TestMatchesBruteForceCATCategories(t *testing.T) {
	r := rng.New(104)
	pat := randomPatterns(t, r, 5, 30)
	model := gtr.JukesCantor()
	perSite := make([]float64, pat.NumPatterns())
	for i := range perSite {
		perSite[i] = 0.25 + 2*r.Float64()
	}
	rates := gtr.ClusterCAT(perSite, 4)
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 3)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	got := e.LogLikelihood()
	want := bruteForceLL(tr, pat, model, rates, pat.Weights)
	if math.Abs(got-want) > 1e-8*math.Abs(want) {
		t.Fatalf("engine %.10f vs brute force %.10f", got, want)
	}
}

func TestAmbiguousStatesAndGaps(t *testing.T) {
	a := &msa.Alignment{
		Names: []string{"w", "x", "y", "z"},
		Seqs: [][]msa.State{
			encodeRow("ACGTN-RY"),
			encodeRow("ACGTACGT"),
			encodeRow("ACG-ACGT"),
			encodeRow("ACGTACGW"),
		},
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	model := gtr.JukesCantor()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, rng.New(9))
	e := newEngine(t, pat, model, rates, 1)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	got := e.LogLikelihood()
	want := bruteForceLL(tr, pat, model, rates, pat.Weights)
	if math.Abs(got-want) > 1e-8*math.Abs(want) {
		t.Fatalf("with ambiguity: engine %.10f vs brute force %.10f", got, want)
	}
}

func encodeRow(s string) []msa.State {
	row := make([]msa.State, len(s))
	for i := 0; i < len(s); i++ {
		row[i] = msa.EncodeChar(s[i])
	}
	return row
}

// ---------- structural invariances ----------

func TestLikelihoodSameAtEveryEdge(t *testing.T) {
	r := rng.New(7)
	pat := randomPatterns(t, r, 10, 80)
	model := gtr.Default()
	rates, _ := gtr.NewGamma(1.0, 4)
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 2)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	ref := e.LogLikelihood()
	for _, edge := range tr.Edges() {
		got := e.EvaluateEdge(edge.A, edge.B)
		if math.Abs(got-ref) > 1e-6*math.Abs(ref) {
			t.Fatalf("edge (%d,%d): logL %.10f differs from root-edge value %.10f",
				edge.A, edge.B, got, ref)
		}
	}
}

func TestThreadCountInvariance(t *testing.T) {
	r := rng.New(8)
	pat := randomPatterns(t, r, 12, 300)
	tr := tree.Random(pat.Names, r)
	var ref float64
	for i, workers := range []int{1, 2, 4, 8} {
		model := gtr.Default()
		rates := gtr.NewUniform(pat.NumPatterns())
		e := newEngine(t, pat, model, rates, workers)
		if err := e.AttachTree(tr.Clone()); err != nil {
			t.Fatal(err)
		}
		got := e.LogLikelihood()
		if i == 0 {
			ref = got
			continue
		}
		if math.Abs(got-ref) > 1e-9*math.Abs(ref) {
			t.Fatalf("workers=%d: logL %.12f differs from serial %.12f", workers, got, ref)
		}
	}
}

func TestScalingPreventsUnderflow(t *testing.T) {
	// A deep caterpillar with long branches underflows unscaled doubles
	// (per-pattern likelihood ~ product of hundreds of factors < 1).
	r := rng.New(11)
	pat := randomPatterns(t, r, 150, 30)
	tr := tree.Caterpillar(pat.Names)
	tr.ScaleBranchLengths(20) // very long branches
	model := gtr.JukesCantor()
	rates := gtr.NewUniform(pat.NumPatterns())
	e := newEngine(t, pat, model, rates, 2)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	ll := e.LogLikelihood()
	if math.IsInf(ll, 0) || math.IsNaN(ll) {
		t.Fatalf("logL = %v on deep tree (scaling failed)", ll)
	}
	if ll >= 0 {
		t.Fatalf("logL = %v, want negative", ll)
	}
}

func TestIdenticalSequencesPreferShortBranches(t *testing.T) {
	// All sequences identical → likelihood should increase as branch
	// lengths shrink.
	a := &msa.Alignment{Names: names(4)}
	for i := 0; i < 4; i++ {
		a.Seqs = append(a.Seqs, encodeRow("ACGTACGTACGTACGT"))
	}
	pat, _ := msa.Compress(a)
	model := gtr.JukesCantor()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, rng.New(2))
	e := newEngine(t, pat, model, rates, 1)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	before := e.LogLikelihood()
	tr.ScaleBranchLengths(0.01)
	e.InvalidateAll()
	after := e.LogLikelihood()
	if after <= before {
		t.Fatalf("identical data: shrinking branches lowered logL (%.4f -> %.4f)", before, after)
	}
}

func TestInvalidateEdgePrecision(t *testing.T) {
	// Changing one branch length + InvalidateEdge must give the same
	// likelihood as a full invalidation.
	r := rng.New(12)
	pat := randomPatterns(t, r, 14, 120)
	model := gtr.Default()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 2)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	_ = e.LogLikelihood() // populate caches
	for _, edge := range tr.Edges()[:5] {
		tr.SetEdgeLength(edge.A, edge.B, tr.EdgeLength(edge.A, edge.B)*1.7)
		e.InvalidateEdge(edge.A, edge.B)
		incremental := e.LogLikelihood()
		e.InvalidateAll()
		full := e.LogLikelihood()
		if math.Abs(incremental-full) > 1e-9*math.Abs(full) {
			t.Fatalf("edge (%d,%d): incremental %.12f vs full %.12f", edge.A, edge.B, incremental, full)
		}
	}
}

func TestSiteLogLikelihoodsSumToTotal(t *testing.T) {
	r := rng.New(13)
	pat := randomPatterns(t, r, 8, 90)
	model := gtr.Default()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 4)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	total := e.LogLikelihood()
	site := e.SiteLogLikelihoods(nil)
	sum := 0.0
	for k, s := range site {
		sum += float64(pat.Weights[k]) * s
	}
	if math.Abs(sum-total) > 1e-8*math.Abs(total) {
		t.Fatalf("site sum %.10f vs total %.10f", sum, total)
	}
}

func TestBootstrapWeights(t *testing.T) {
	r := rng.New(14)
	pat := randomPatterns(t, r, 8, 120)
	model := gtr.Default()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 2)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	orig := e.LogLikelihood()

	w := pat.Resample(rng.New(12345))
	e.SetWeights(w)
	boot := e.LogLikelihood()
	// Cross-check with a fresh engine under the same weights.
	e2 := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	if err := e2.AttachTree(tr.Clone()); err != nil {
		t.Fatal(err)
	}
	e2.SetWeights(w)
	if got := e2.LogLikelihood(); math.Abs(got-boot) > 1e-9*math.Abs(boot) {
		t.Fatalf("bootstrap logL differs across engines: %.10f vs %.10f", got, boot)
	}
	// Restore and verify.
	e.SetWeights(nil)
	if got := e.LogLikelihood(); math.Abs(got-orig) > 1e-9*math.Abs(orig) {
		t.Fatalf("restoring weights: %.10f vs %.10f", got, orig)
	}
}

func TestTopologyChangeDetected(t *testing.T) {
	r := rng.New(15)
	pat := randomPatterns(t, r, 10, 60)
	model := gtr.Default()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 1)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	_ = e.LogLikelihood()
	// NNI then InvalidateAll: engine must agree with a fresh engine.
	ie := tr.InternalEdges()[0]
	if err := tr.NNI(tree.NNIMove{Edge: ie, Variant: 0}); err != nil {
		t.Fatal(err)
	}
	e.InvalidateAll()
	got := e.LogLikelihood()
	e2 := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	if err := e2.AttachTree(tr.Clone()); err != nil {
		t.Fatal(err)
	}
	want := e2.LogLikelihood()
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("after NNI: %.10f vs fresh engine %.10f", got, want)
	}
}

// ---------- optimization ----------

func TestOptimizeBranchImproves(t *testing.T) {
	r := rng.New(16)
	pat := randomPatterns(t, r, 8, 100)
	model := gtr.Default()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 2)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	before := e.LogLikelihood()
	edge := tr.Edges()[3]
	e.OptimizeBranch(edge.A, edge.B)
	after := e.LogLikelihood()
	if after < before-1e-9 {
		t.Fatalf("OptimizeBranch decreased logL: %.8f -> %.8f", before, after)
	}
}

func TestOptimizeBranchFindsStationaryPoint(t *testing.T) {
	r := rng.New(17)
	pat := randomPatterns(t, r, 6, 150)
	model := gtr.JukesCantor()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 1)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	edge := tr.Edges()[0]
	opt := e.OptimizeBranch(edge.A, edge.B)
	if opt <= tree.MinBranchLength || opt >= tree.MaxBranchLength {
		t.Skipf("optimum hit bound %g; nothing to verify", opt)
	}
	// Finite-difference check: logL(opt) >= logL(opt ± h).
	base := e.LogLikelihood()
	for _, h := range []float64{1e-3, -1e-3} {
		tr.SetEdgeLength(edge.A, edge.B, opt+h)
		e.InvalidateEdge(edge.A, edge.B)
		if ll := e.LogLikelihood(); ll > base+1e-6 {
			t.Fatalf("perturbing optimized branch by %g improved logL %.9f -> %.9f", h, base, ll)
		}
		tr.SetEdgeLength(edge.A, edge.B, opt)
		e.InvalidateEdge(edge.A, edge.B)
	}
}

func TestOptimizeAllBranchesMonotone(t *testing.T) {
	r := rng.New(18)
	pat := randomPatterns(t, r, 10, 100)
	model := gtr.Default()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 4)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	before := e.LogLikelihood()
	after := e.OptimizeAllBranches(4, 0.001)
	if after < before-1e-6 {
		t.Fatalf("OptimizeAllBranches decreased logL: %.6f -> %.6f", before, after)
	}
}

func TestOptimizeModelImproves(t *testing.T) {
	r := rng.New(19)
	pat := randomPatterns(t, r, 8, 80)
	model := gtr.Default()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 2)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	before := e.LogLikelihood()
	after := e.OptimizeModel(ModelOptConfig{Rates: true, Rounds: 1})
	if after < before-1e-6 {
		t.Fatalf("OptimizeModel decreased logL: %.6f -> %.6f", before, after)
	}
}

func TestOptimizeAlphaImproves(t *testing.T) {
	r := rng.New(20)
	pat := randomPatterns(t, r, 6, 60)
	model := gtr.JukesCantor()
	rates, _ := gtr.NewGamma(5.0, 4) // start far from data-optimal
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 1)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	before := e.LogLikelihood()
	after := e.OptimizeModel(ModelOptConfig{Alpha: true, Rounds: 1})
	if after < before-1e-6 {
		t.Fatalf("alpha optimization decreased logL: %.6f -> %.6f", before, after)
	}
}

func TestOptimizePerSiteRatesNotWorse(t *testing.T) {
	r := rng.New(21)
	pat := randomPatterns(t, r, 8, 100)
	model := gtr.Default()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 2)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	before := e.LogLikelihood()
	after := e.OptimizePerSiteRates(8, 8)
	if after < before-1e-6 {
		t.Fatalf("CAT rate optimization decreased logL: %.6f -> %.6f", before, after)
	}
	if e.Rates().IsCAT() && e.Rates().NumCats() < 1 {
		t.Fatal("CAT optimization produced no categories")
	}
}

func TestEstimateEmpiricalFreqs(t *testing.T) {
	a := &msa.Alignment{Names: names(4)}
	// heavily A-biased data
	for i := 0; i < 4; i++ {
		a.Seqs = append(a.Seqs, encodeRow("AAAAAAAAAAAAAAAAAAAC"))
	}
	pat, _ := msa.Compress(a)
	model := gtr.Default()
	rates := gtr.NewUniform(pat.NumPatterns())
	e := newEngine(t, pat, model, rates, 1)
	tr := tree.Random(pat.Names, rng.New(1))
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	f := e.EstimateEmpiricalFreqs()
	if f[0] < 0.5 {
		t.Fatalf("A frequency %g too low for A-dominated data", f[0])
	}
}

func TestKernelCountsAdvance(t *testing.T) {
	r := rng.New(41)
	pat := randomPatterns(t, r, 8, 60)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	nv0, ev0 := e.Counts()
	_ = e.LogLikelihood()
	nv1, ev1 := e.Counts()
	if nv1 <= nv0 || ev1 <= ev0 {
		t.Fatalf("kernel counters did not advance: (%d,%d) -> (%d,%d)", nv0, ev0, nv1, ev1)
	}
	// Cached: a second evaluation adds evaluates but no newviews.
	_ = e.LogLikelihood()
	nv2, _ := e.Counts()
	if nv2 != nv1 {
		t.Fatalf("cached evaluation recomputed %d CLVs", nv2-nv1)
	}
}

func TestMemoryAccounting(t *testing.T) {
	r := rng.New(43)
	pat := randomPatterns(t, r, 10, 200)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	before := e.MemoryBytes()
	_ = e.LogLikelihood() // allocates CLVs along the evaluation path
	after := e.MemoryBytes()
	if after <= before {
		t.Fatalf("memory did not grow after evaluation: %d -> %d", before, after)
	}
	// Fully populated footprint is bounded by the static estimate.
	est := EstimateMemoryBytes(pat.NumTaxa(), pat.NumPatterns(), 1)
	if after > est {
		t.Fatalf("actual footprint %d exceeds estimate %d", after, est)
	}
	// GAMMA needs ~4x the CAT footprint (the paper's Section-7 memory
	// pressure at large pattern counts).
	catEst := EstimateMemoryBytes(125, 19436, 1)
	gammaEst := EstimateMemoryBytes(125, 19436, 4)
	if ratio := float64(gammaEst) / float64(catEst); ratio < 3 || ratio > 4.5 {
		t.Fatalf("GAMMA/CAT memory ratio %.2f, want ~4", ratio)
	}
	if EstimateMemoryBytes(0, 10, 1) != 0 {
		t.Fatal("degenerate estimate should be 0")
	}
}

func TestWeightVectorLengthMismatchPanics(t *testing.T) {
	r := rng.New(22)
	pat := randomPatterns(t, r, 4, 20)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("SetWeights with wrong length did not panic")
		}
	}()
	e.SetWeights([]int{1, 2, 3})
}

func TestDuplicatedColumnsViaWeights(t *testing.T) {
	// Doubling every weight must exactly double the log-likelihood.
	r := rng.New(23)
	pat := randomPatterns(t, r, 6, 50)
	model := gtr.Default()
	rates := gtr.NewUniform(pat.NumPatterns())
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, model, rates, 2)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	base := e.LogLikelihood()
	doubled := make([]int, len(pat.Weights))
	for i, w := range pat.Weights {
		doubled[i] = 2 * w
	}
	e.SetWeights(doubled)
	if got := e.LogLikelihood(); math.Abs(got-2*base) > 1e-8*math.Abs(base) {
		t.Fatalf("doubled weights: %.8f, want %.8f", got, 2*base)
	}
}

// ---------- benchmarks ----------

func benchPatterns(b *testing.B, nTaxa, nChars int) *msa.Patterns {
	b.Helper()
	r := rng.New(1)
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
	p, err := msa.Compress(a)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkLogLikelihood(b *testing.B) {
	pat := benchPatterns(b, 50, 1846)
	tr := tree.Random(pat.Names, rng.New(2))
	for _, workers := range []int{1, 2, 4} {
		b.Run("workers="+string(rune('0'+workers)), func(b *testing.B) {
			if workers > runtime.NumCPU() {
				b.Skipf("%d workers oversubscribe %d CPUs: timings would measure the scheduler", workers, runtime.NumCPU())
			}
			pool := threads.NewPool(workers, pat.NumPatterns())
			defer pool.Close()
			e, err := New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), Config{Pool: pool})
			if err != nil {
				b.Fatal(err)
			}
			if err := e.AttachTree(tr); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.InvalidateAll()
				_ = e.LogLikelihood()
			}
		})
	}
}

func BenchmarkOptimizeAllBranches(b *testing.B) {
	pat := benchPatterns(b, 30, 500)
	tr := tree.Random(pat.Names, rng.New(2))
	pool := threads.NewPool(2, pat.NumPatterns())
	defer pool.Close()
	e, err := New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), Config{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.AttachTree(tr); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.OptimizeAllBranches(1, 0)
	}
}

// TestOptimizeAllBranchesAllocs pins one warm branch-length sweep — 57
// Newton-optimized edges, each followed by a precise InvalidateEdge —
// at a handful of allocations: the DFS edge order, the invalidation
// walk and every descriptor, factor and reduction buffer are reused
// engine state (ROADMAP direction 1, "pin the allocations").
func TestOptimizeAllBranchesAllocs(t *testing.T) {
	pat := randomPatterns(t, rng.New(77), 30, 300)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	if err := e.AttachTree(tree.Random(pat.Names, rng.New(78))); err != nil {
		t.Fatal(err)
	}
	e.OptimizeAllBranches(1, 0) // warm: arena, sumtable and scratch sized
	if allocs := testing.AllocsPerRun(5, func() { e.OptimizeAllBranches(1, 0) }); allocs > 16 {
		t.Fatalf("warm OptimizeAllBranches sweep allocates %.0f times, want <= 16", allocs)
	}
}
