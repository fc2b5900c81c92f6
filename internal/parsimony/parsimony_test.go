package parsimony

import (
	"fmt"
	"testing"

	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

func patternsFromRows(t *testing.T, rows ...string) *msa.Patterns {
	t.Helper()
	a := &msa.Alignment{}
	for i, row := range rows {
		a.Names = append(a.Names, "t"+string(rune('0'+i)))
		states := make([]msa.State, len(row))
		for j := 0; j < len(row); j++ {
			states[j] = msa.EncodeChar(row[j])
		}
		a.Seqs = append(a.Seqs, states)
	}
	p, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randomPatterns(t *testing.T, r *rng.RNG, nTaxa, nChars int) *msa.Patterns {
	t.Helper()
	letters := []byte("ACGT")
	a := &msa.Alignment{}
	for i := 0; i < nTaxa; i++ {
		a.Names = append(a.Names, "x"+string(rune('a'+i%26))+string(rune('0'+i/26)))
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

func TestScoreKnownQuartet(t *testing.T) {
	// Pattern "AACC": grouping (t0,t1)|(t2,t3) needs 1 change,
	// grouping (t0,t2)|(t1,t3) needs 2.
	pat := patternsFromRows(t, "A", "A", "C", "C")
	e := New(pat, nil)

	good := tree.New(pat.Names) // ((t0,t1),(t2,t3))
	i1 := good.NewInternal()
	i2 := good.NewInternal()
	good.Connect(i1, 0, 0.1)
	good.Connect(i1, 1, 0.1)
	good.Connect(i2, 2, 0.1)
	good.Connect(i2, 3, 0.1)
	good.Connect(i1, i2, 0.1)
	if got := e.Score(good); got != 1 {
		t.Fatalf("Score((01)(23)) = %d, want 1", got)
	}

	bad := tree.New(pat.Names) // ((t0,t2),(t1,t3))
	j1 := bad.NewInternal()
	j2 := bad.NewInternal()
	bad.Connect(j1, 0, 0.1)
	bad.Connect(j1, 2, 0.1)
	bad.Connect(j2, 1, 0.1)
	bad.Connect(j2, 3, 0.1)
	bad.Connect(j1, j2, 0.1)
	if got := e.Score(bad); got != 2 {
		t.Fatalf("Score((02)(13)) = %d, want 2", got)
	}
}

func TestScoreInvariantSites(t *testing.T) {
	pat := patternsFromRows(t, "AAAA", "AAAA", "AAAA", "AAAA")
	e := New(pat, nil)
	tr := tree.Random(pat.Names, rng.New(1))
	if got := e.Score(tr); got != 0 {
		t.Fatalf("invariant alignment scored %d, want 0", got)
	}
}

func TestScoreWeightsMultiply(t *testing.T) {
	pat := patternsFromRows(t, "AC", "AC", "CA", "CA")
	e := New(pat, nil)
	tr := tree.Random(pat.Names, rng.New(2))
	base := e.Score(tr)
	w := make([]int, pat.NumPatterns())
	for i := range w {
		w[i] = 3 * pat.Weights[i]
	}
	e.SetWeights(w)
	if got := e.Score(tr); got != 3*base {
		t.Fatalf("tripled weights: score %d, want %d", got, 3*base)
	}
	e.SetWeights(nil)
	if got := e.Score(tr); got != base {
		t.Fatalf("restored weights: score %d, want %d", got, base)
	}
}

func TestScoreTopologyIndependentOfScoringRoot(t *testing.T) {
	// The Fitch score must not depend on node ids / evaluation rooting:
	// compare against the same topology parsed from Newick (different
	// internal node numbering).
	r := rng.New(3)
	pat := randomPatterns(t, r, 12, 60)
	e := New(pat, nil)
	tr := tree.Random(pat.Names, r)
	s1 := e.Score(tr)
	nw, err := tree.FormatNewick(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := tree.ParseNewick(nw, pat.Names)
	if err != nil {
		t.Fatal(err)
	}
	if s2 := e.Score(tr2); s1 != s2 {
		t.Fatalf("same topology scored %d and %d", s1, s2)
	}
}

func TestScoreParallelInvariance(t *testing.T) {
	r := rng.New(4)
	pat := randomPatterns(t, r, 16, 200)
	tr := tree.Random(pat.Names, r)
	ref := -1
	for _, workers := range []int{1, 2, 4, 8} {
		pool := threads.NewPool(workers, pat.NumPatterns())
		e := New(pat, pool)
		got := e.Score(tr)
		pool.Close()
		if ref == -1 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("workers=%d: score %d != serial %d", workers, got, ref)
		}
	}
}

func TestScoreLowerBoundDistinctStates(t *testing.T) {
	// For a single pattern, the Fitch score is at least
	// (#distinct unambiguous states - 1) and at most nTaxa-1.
	r := rng.New(5)
	pat := randomPatterns(t, r, 10, 1)
	e := New(pat, nil)
	tr := tree.Random(pat.Names, r)
	score := e.Score(tr)
	distinct := map[msa.State]bool{}
	for taxon := 0; taxon < 10; taxon++ {
		distinct[pat.Data[taxon][0]] = true
	}
	lo := (len(distinct) - 1) * pat.Weights[0]
	hi := 9 * pat.Weights[0]
	if score < lo || score > hi {
		t.Fatalf("score %d outside [%d, %d]", score, lo, hi)
	}
}

func TestStepwiseAdditionValidTree(t *testing.T) {
	r := rng.New(6)
	pat := randomPatterns(t, r, 20, 100)
	tr := StepwiseAddition(pat, r, nil)
	if err := tr.Validate(); err != nil {
		t.Fatalf("stepwise addition produced invalid tree: %v", err)
	}
}

func TestStepwiseAdditionBeatsRandom(t *testing.T) {
	r := rng.New(7)
	pat := randomPatterns(t, r, 15, 150)
	e := New(pat, nil)
	mp := e.StepwiseAddition(rng.New(1))
	mpScore := e.Score(mp)
	// Average random-tree score must be clearly worse.
	worse := 0
	for trial := 0; trial < 10; trial++ {
		rt := tree.Random(pat.Names, rng.New(int64(100+trial)))
		if e.Score(rt) > mpScore {
			worse++
		}
	}
	if worse < 8 {
		t.Fatalf("stepwise tree (score %d) beat only %d/10 random trees", mpScore, worse)
	}
}

func TestStepwiseAdditionReproducible(t *testing.T) {
	r := rng.New(8)
	pat := randomPatterns(t, r, 12, 80)
	t1 := StepwiseAddition(pat, rng.New(42), nil)
	t2 := StepwiseAddition(pat, rng.New(42), nil)
	d, err := tree.RobinsonFoulds(t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("same seed gave different stepwise trees (RF=%d)", d)
	}
}

func TestStepwiseAdditionOrdersDiffer(t *testing.T) {
	r := rng.New(9)
	pat := randomPatterns(t, r, 14, 40)
	t1 := StepwiseAddition(pat, rng.New(1), nil)
	t2 := StepwiseAddition(pat, rng.New(2), nil)
	d, _ := tree.RobinsonFoulds(t1, t2)
	if d == 0 {
		t.Log("different insertion orders produced the same topology (possible but unusual)")
	}
}

func TestStepwiseAdditionWithBootstrapWeights(t *testing.T) {
	r := rng.New(10)
	pat := randomPatterns(t, r, 10, 120)
	e := New(pat, nil)
	w := pat.Resample(rng.New(5))
	e.SetWeights(w)
	tr := e.StepwiseAddition(rng.New(3))
	if err := tr.Validate(); err != nil {
		t.Fatalf("bootstrap-weighted stepwise addition invalid: %v", err)
	}
}

func BenchmarkScore(b *testing.B) {
	r := rng.New(1)
	letters := []byte("ACGT")
	a := &msa.Alignment{}
	for i := 0; i < 50; i++ {
		a.Names = append(a.Names, "n"+string(rune('a'+i%26))+string(rune('0'+i/26)))
		row := make([]msa.State, 1000)
		for j := range row {
			row[j] = msa.EncodeChar(letters[r.Intn(4)])
		}
		a.Seqs = append(a.Seqs, row)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		b.Fatal(err)
	}
	tr := tree.Random(pat.Names, r)
	e := New(pat, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Score(tr)
	}
}

// BenchmarkStepwiseAddition grows one serial stepwise-addition tree over
// 300 random characters: one view walk and one candidate join per
// inserted taxon, O(taxa·patterns) each, so taxa=50 against taxa=24
// shows the per-step cost growing linearly, not quadratically.
func BenchmarkStepwiseAddition(b *testing.B) {
	for _, taxa := range []int{24, 50} {
		b.Run(fmt.Sprintf("taxa=%d", taxa), func(b *testing.B) {
			r := rng.New(1)
			letters := []byte("ACGT")
			a := &msa.Alignment{}
			for i := 0; i < taxa; i++ {
				a.Names = append(a.Names, "n"+string(rune('a'+i%26))+string(rune('0'+i/26)))
				row := make([]msa.State, 300)
				for j := range row {
					row[j] = msa.EncodeChar(letters[r.Intn(4)])
				}
				a.Seqs = append(a.Seqs, row)
			}
			pat, err := msa.Compress(a)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = StepwiseAddition(pat, rng.New(int64(i)), nil)
			}
		})
	}
}

func TestScoreSingleDispatch(t *testing.T) {
	// One Score call folds the whole tree and reduces the result in
	// exactly one pool job — the batched Fitch descriptor at work.
	r := rng.New(77)
	pat := randomPatterns(t, r, 40, 200)
	pool := threads.NewPool(4, pat.NumPatterns())
	defer pool.Close()
	e := New(pat, pool)
	tr := tree.Random(pat.Names, r)
	serial := New(pat, nil).Score(tr)
	before := pool.Dispatches()
	if got := e.Score(tr); got != serial {
		t.Fatalf("parallel score %d != serial score %d", got, serial)
	}
	if used := pool.Dispatches() - before; used != 1 {
		t.Fatalf("Score used %d dispatches, want exactly 1", used)
	}
}

func TestStepwiseDispatches(t *testing.T) {
	// One dispatch per inserted taxon: n−3 per tree, whatever the crew.
	r := rng.New(78)
	pat := randomPatterns(t, r, 30, 150)
	for _, workers := range []int{1, 2, 3} {
		pool := threads.NewPool(workers, pat.NumPatterns())
		e := New(pat, pool)
		e.SetWeights(pat.Resample(rng.New(5)))
		before := pool.Dispatches()
		e.StepwiseAddition(rng.New(int64(workers)))
		if used := pool.Dispatches() - before; used != int64(pat.NumTaxa()-3) {
			t.Errorf("T=%d: StepwiseAddition used %d dispatches, want %d", workers, used, pat.NumTaxa()-3)
		}
		pool.Close()
	}
}

func TestInsertionScoresMatchScore(t *testing.T) {
	// Every per-edge insertion score from the view join equals Score of
	// the tree with the taxon physically inserted there, and Score equals
	// a per-pattern Fitch fold written independently of the engine — over
	// random partial trees, original and bootstrap weights, ambiguity
	// codes and gaps, and T = 1, 2, 3.
	r := rng.New(79)
	pat := ambiguousPatterns(t, r, 16, 140)
	boot := pat.Resample(rng.New(80))
	for _, workers := range []int{1, 2, 3} {
		for _, weights := range [][]int{nil, boot} {
			pool := threads.NewPool(workers, pat.NumPatterns())
			e := New(pat, pool)
			e.SetWeights(weights)
			w := weights
			if w == nil {
				w = pat.Weights
			}
			for trial := 0; trial < 6; trial++ {
				order := r.Perm(pat.NumTaxa())
				k := 3 + r.Intn(pat.NumTaxa()-3)
				tr := partialTree(pat.Names, order[:k], r)
				taxon := order[k]
				edges, scores := e.insertionScores(tr, taxon)
				if len(edges) != 2*k-3 {
					t.Fatalf("%d candidates on a tree of %d taxa, want %d", len(edges), k, 2*k-3)
				}
				for i, ed := range edges {
					tr.InsertTipOnEdge(taxon, ed, tree.DefaultBranchLength)
					want := naiveFitch(tr, pat, w)
					if got := e.Score(tr); got != want {
						t.Fatalf("T=%d trial %d: Score %d, reference fold %d", workers, trial, got, want)
					}
					if scores[i] != want {
						t.Fatalf("T=%d trial %d edge %v: insertion score %d, Score of the inserted tree %d",
							workers, trial, ed, scores[i], want)
					}
					tr.RemoveTip(taxon)
				}
			}
			pool.Close()
		}
	}
}

// partialTree joins taxa[:3] at one inner node and inserts the rest on
// random edges.
func partialTree(names []string, taxa []int, r *rng.RNG) *tree.Tree {
	t := tree.New(names)
	center := t.NewInternal()
	for _, x := range taxa[:3] {
		t.Connect(center, x, tree.DefaultBranchLength)
	}
	for _, x := range taxa[3:] {
		edges := t.Edges()
		t.InsertTipOnEdge(x, edges[r.Intn(len(edges))], tree.DefaultBranchLength)
	}
	return t
}

// naiveFitch is the textbook weighted Fitch score of t, one pattern at a
// time, by recursion from the first attached tip.
func naiveFitch(t *tree.Tree, pat *msa.Patterns, w []int) int {
	root := -1
	for i := 0; i < pat.NumTaxa() && root < 0; i++ {
		if t.Nodes[i].Neighbors[0] >= 0 {
			root = i
		}
	}
	total := 0
	for k := range w {
		var fold func(u, parent int) (msa.State, int)
		fold = func(u, parent int) (msa.State, int) {
			if t.Nodes[u].IsTip() {
				return pat.Data[u][k], 0
			}
			var s msa.State
			c, first := 0, true
			for _, v := range t.Nodes[u].Neighbors {
				if v < 0 || v == parent {
					continue
				}
				vs, vc := fold(v, u)
				c += vc
				switch {
				case first:
					s, first = vs, false
				case s&vs != 0:
					s &= vs
				default:
					s |= vs
					c++
				}
			}
			return s, c
		}
		s, c := fold(t.Nodes[root].Neighbors[0], root)
		if s&pat.Data[root][k] == 0 {
			c++
		}
		total += w[k] * c
	}
	return total
}

// BenchmarkFitchKernels times the two inner loops of the stepwise job
// per pattern, on random L1-resident states: a view step (fitchSpan) and
// a candidate join (joinSpan). The ns/pattern metrics are what JobWork's
// units are set from.
func BenchmarkFitchKernels(b *testing.B) {
	const n = 1024
	r := rng.New(1)
	states := func() []msa.State {
		s := make([]msa.State, n)
		for k := range s {
			s[k] = msa.State(1) << r.Intn(4)
		}
		return s
	}
	x, y, tip, dst := states(), states(), states(), make([]msa.State, n)
	w := make([]int, n)
	for k := range w {
		w[k] = 1 + r.Intn(3)
	}
	sink := 0
	b.Run("view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += fitchSpan(dst, x, y, w)
			x, dst = dst, x
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pattern")
	})
	b.Run("join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += joinSpan(x, y, tip, w)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pattern")
	})
	if sink == -1 {
		b.Log(sink)
	}
}
