package rapidbs

import (
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/seqgen"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

func testSetup(t *testing.T, taxa, chars int, seed int64, workers int) (*msa.Patterns, *likelihood.Engine) {
	t.Helper()
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: taxa, Chars: chars, Seed: seed, TreeScale: 0.5, Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	pool := threads.NewPool(workers, pat.NumPatterns())
	t.Cleanup(pool.Close)
	eng, err := likelihood.New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), likelihood.Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return pat, eng
}

func TestRunProducesRequestedReplicates(t *testing.T) {
	_, eng := testSetup(t, 10, 300, 1, 1)
	r := NewRunner(eng)
	reps, err := r.Run(7, rng.New(12345), rng.New(12345))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 7 {
		t.Fatalf("%d replicates, want 7", len(reps))
	}
	for i, rep := range reps {
		if rep.Index != i {
			t.Errorf("replicate %d has index %d", i, rep.Index)
		}
		if err := rep.Tree.Validate(); err != nil {
			t.Errorf("replicate %d tree invalid: %v", i, err)
		}
		total := 0
		for _, w := range rep.Weights {
			total += w
		}
		if total != eng.Patterns().NumChars() {
			t.Errorf("replicate %d weights sum to %d, want %d", i, total, eng.Patterns().NumChars())
		}
	}
}

func TestRunRestoresOriginalWeights(t *testing.T) {
	pat, eng := testSetup(t, 8, 200, 2, 1)
	r := NewRunner(eng)
	if _, err := r.Run(3, rng.New(1), rng.New(1)); err != nil {
		t.Fatal(err)
	}
	w := eng.Weights()
	for k := range w {
		if w[k] != pat.Weights[k] {
			t.Fatal("engine weights not restored after bootstrap run")
		}
	}
}

func TestReplicatesDiffer(t *testing.T) {
	_, eng := testSetup(t, 10, 150, 3, 1)
	r := NewRunner(eng)
	reps, err := r.Run(4, rng.New(5), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Weight vectors must differ across replicates.
	same := 0
	for i := 1; i < len(reps); i++ {
		identical := true
		for k := range reps[i].Weights {
			if reps[i].Weights[k] != reps[0].Weights[k] {
				identical = false
				break
			}
		}
		if identical {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d replicates share the first replicate's weights", same)
	}
}

func TestRunReproducible(t *testing.T) {
	_, eng1 := testSetup(t, 8, 200, 4, 1)
	_, eng2 := testSetup(t, 8, 200, 4, 1)
	r1 := NewRunner(eng1)
	r2 := NewRunner(eng2)
	reps1, err := r1.Run(5, rng.New(777), rng.New(888))
	if err != nil {
		t.Fatal(err)
	}
	reps2, err := r2.Run(5, rng.New(777), rng.New(888))
	if err != nil {
		t.Fatal(err)
	}
	for i := range reps1 {
		n1, _ := tree.FormatNewick(reps1[i].Tree, nil)
		n2, _ := tree.FormatNewick(reps2[i].Tree, nil)
		if n1 != n2 {
			t.Fatalf("replicate %d differs across identical runs", i)
		}
	}
}

func TestRunZeroReplicates(t *testing.T) {
	_, eng := testSetup(t, 8, 100, 5, 1)
	r := NewRunner(eng)
	reps, err := r.Run(0, rng.New(1), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 0 {
		t.Fatalf("%d replicates from count 0", len(reps))
	}
	if _, err := r.Run(-1, rng.New(1), rng.New(1)); err == nil {
		t.Fatal("accepted negative replicate count")
	}
}

func TestEveryFifth(t *testing.T) {
	_, eng := testSetup(t, 8, 120, 6, 1)
	r := NewRunner(eng)
	for _, tc := range []struct{ reps, want int }{
		{1, 1}, {5, 1}, {6, 2}, {10, 2}, {13, 3}, {25, 5},
	} {
		reps, err := r.Run(tc.reps, rng.New(int64(tc.reps)), rng.New(int64(tc.reps)))
		if err != nil {
			t.Fatal(err)
		}
		got := EveryFifth(reps)
		if len(got) != tc.want {
			t.Errorf("EveryFifth(%d replicates) = %d trees, want %d (ceil(n/5))",
				tc.reps, len(got), tc.want)
		}
	}
}

// replicateTrees returns the replicates' topologies in order.
func replicateTrees(reps []*Replicate) []*tree.Tree {
	out := make([]*tree.Tree, len(reps))
	for i, r := range reps {
		out[i] = r.Tree
	}
	return out
}

func TestSupportCounts(t *testing.T) {
	_, eng := testSetup(t, 10, 800, 7, 2)
	r := NewRunner(eng)
	reps, err := r.Run(10, rng.New(3), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ref := reps[0].Tree
	sup, err := tree.Support(ref, replicateTrees(reps))
	if err != nil {
		t.Fatal(err)
	}
	if len(sup) != len(ref.Bipartitions()) {
		t.Fatalf("support on %d edges, want %d", len(sup), len(ref.Bipartitions()))
	}
	for e, pct := range sup {
		if pct < 0 || pct > 100 {
			t.Fatalf("support %d%% on edge %v out of range", pct, e)
		}
	}
}

func TestSupportCountsStrongSignal(t *testing.T) {
	// With long, clean alignments every replicate should recover mostly
	// the same splits → high average support.
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 8, Chars: 4000, Seed: 8, TreeScale: 0.4, Alpha: 5})
	if err != nil {
		t.Fatal(err)
	}
	pat, _ := msa.Compress(a)
	pool := threads.NewPool(2, pat.NumPatterns())
	t.Cleanup(pool.Close)
	eng, err := likelihood.New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), likelihood.Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(eng)
	reps, err := r.Run(8, rng.New(4), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	sup, err := tree.Support(reps[0].Tree, replicateTrees(reps))
	if err != nil {
		t.Fatal(err)
	}
	total, n := 0, 0
	for _, pct := range sup {
		total += pct
		n++
	}
	if n == 0 {
		t.Fatal("no supported edges")
	}
	if avg := total / n; avg < 50 {
		t.Fatalf("mean support %d%% too low for strong-signal data", avg)
	}
}

// TestRunRangeResumesStream pins the checkpoint/resume contract: a
// replicate stream interrupted at an arbitrary boundary and resumed on
// a FRESH runner — previous tree and RNG states restored, as after a
// rank failure — is bit-identical to the uninterrupted stream.
func TestRunRangeResumesStream(t *testing.T) {
	_, eng := testSetup(t, 10, 300, 3, 1)
	const total, cut = 13, 4 // cut mid-decade: exercises the reuse chain across the seam

	whole := NewRunner(eng)
	want, err := whole.Run(total, rng.New(77), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}

	// First leg on a fresh engine+runner, capturing the checkpoint
	// state at the cut.
	_, eng2 := testSetup(t, 10, 300, 3, 1)
	first := NewRunner(eng2)
	bs, pars := rng.New(77), rng.New(42)
	var got []*Replicate
	if err := first.RunRange(0, cut, bs, pars, func(rep *Replicate) error {
		got = append(got, rep)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	bsState, parsState := bs.State(), pars.State()
	prev := first.PrevTree().Clone()

	// Second leg: fresh runner, restored state — the re-striped pool's
	// view after a failure.
	_, eng3 := testSetup(t, 10, 300, 3, 1)
	second := NewRunner(eng3)
	second.SetPrevTree(prev)
	bs2, pars2 := rng.New(0), rng.New(0)
	bs2.SetState(bsState)
	pars2.SetState(parsState)
	if err := second.RunRange(cut, total-cut, bs2, pars2, func(rep *Replicate) error {
		got = append(got, rep)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("%d replicates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index {
			t.Errorf("replicate %d: index %d, want %d", i, got[i].Index, want[i].Index)
		}
		g, err1 := tree.FormatNewick(got[i].Tree, nil)
		w, err2 := tree.FormatNewick(want[i].Tree, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("newick: %v %v", err1, err2)
		}
		if g != w {
			t.Errorf("replicate %d: resumed tree differs from uninterrupted tree", i)
		}
		if got[i].LogLikelihood != want[i].LogLikelihood {
			t.Errorf("replicate %d: lnL %.15f, want %.15f", i, got[i].LogLikelihood, want[i].LogLikelihood)
		}
		for k, w := range want[i].Weights {
			if got[i].Weights[k] != w {
				t.Fatalf("replicate %d: weight[%d] differs", i, k)
			}
		}
	}
}
