package likelihood

import (
	"math"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/rng"
	"raxml/internal/tree"
)

// TestSingleDispatchFullTree is the acceptance check of the traversal-
// descriptor engine: a full-tree likelihood re-evaluation must post
// exactly ONE pool job (one barrier crossing) regardless of tree size.
func TestSingleDispatchFullTree(t *testing.T) {
	r := rng.New(31)
	for _, workers := range []int{1, 4} {
		for _, taxa := range []int{8, 40, 120} {
			pat := randomPatterns(t, r, taxa, 60)
			e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), workers)
			tr := tree.Random(pat.Names, r)
			if err := e.AttachTree(tr); err != nil {
				t.Fatal(err)
			}
			e.InvalidateAll()
			before := e.DispatchCount()
			_ = e.LogLikelihood()
			if got := e.DispatchCount() - before; got != 1 {
				t.Fatalf("taxa=%d workers=%d: full-tree re-evaluation used %d dispatches, want exactly 1",
					taxa, workers, got)
			}
			// Descriptor covered the whole tree: rooted at the taxon-0
			// edge, each of the taxa-2 internal nodes contributes
			// exactly one stale directed view.
			if n := len(e.LastTraversal()); n != taxa-2 {
				t.Fatalf("taxa=%d: descriptor has %d entries, want %d", taxa, n, taxa-2)
			}
			// A cached evaluation still costs exactly one dispatch (the
			// reduction), with an empty descriptor.
			before = e.DispatchCount()
			_ = e.LogLikelihood()
			if got := e.DispatchCount() - before; got != 1 {
				t.Fatalf("cached evaluation used %d dispatches, want 1", got)
			}
			if n := len(e.LastTraversal()); n != 0 {
				t.Fatalf("cached evaluation rebuilt %d descriptor entries", n)
			}
		}
	}
}

// TestTraversalChildrenBeforeParents asserts the descriptor's defining
// invariant: every entry's internal children are either computed by an
// EARLIER entry or were already valid — workers walk the list in order
// with no intra-job barrier, so order is correctness.
func TestTraversalChildrenBeforeParents(t *testing.T) {
	r := rng.New(32)
	pat := randomPatterns(t, r, 30, 50)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 2)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	_ = e.LogLikelihood()
	entries := e.LastTraversal()
	if len(entries) == 0 {
		t.Fatal("no traversal recorded")
	}
	pos := make(map[[2]int]int)
	for i, ent := range entries {
		pos[[2]int{ent.Node, ent.Slot}] = i
	}
	nTaxa := pat.NumTaxa()
	for i, ent := range entries {
		for _, c := range [][2]int{{ent.C1, ent.C1Slot}, {ent.C2, ent.C2Slot}} {
			if c[0] < nTaxa {
				continue // tip: always fresh
			}
			if j, inTrav := pos[c]; inTrav && j >= i {
				t.Fatalf("entry %d (node %d) consumes child (node %d, slot %d) computed later at %d",
					i, ent.Node, c[0], c[1], j)
			}
		}
	}
}

// TestTraversalInvalidationOrder asserts that after a single branch
// change the rebuilt descriptor contains exactly the invalidated views
// (a strict subset of the tree), and that the incremental result
// matches a from-scratch engine.
func TestTraversalInvalidationOrder(t *testing.T) {
	r := rng.New(33)
	pat := randomPatterns(t, r, 20, 80)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 2)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	_ = e.LogLikelihood()
	full := pat.NumTaxa() - 2

	edge := tr.InternalEdges()[0]
	tr.SetEdgeLength(edge.A, edge.B, tr.EdgeLength(edge.A, edge.B)*2)
	e.InvalidateEdge(edge.A, edge.B)
	incremental := e.LogLikelihood()
	rebuilt := len(e.LastTraversal())
	if rebuilt == 0 || rebuilt >= full {
		t.Fatalf("after one branch change the descriptor rebuilt %d of %d views, want a nonempty strict subset",
			rebuilt, full)
	}
	fresh := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	if err := fresh.AttachTree(tr.Clone()); err != nil {
		t.Fatal(err)
	}
	want := fresh.LogLikelihood()
	if math.Abs(incremental-want) > 1e-9*math.Abs(want) {
		t.Fatalf("incremental descriptor result %.12f vs fresh engine %.12f", incremental, want)
	}
}

// TestDeterminismAcrossWorkerCounts asserts the batched engine computes
// the same likelihood at 1, 2 and 4 workers: per-pattern site values
// must be bit-identical (each pattern is computed independently of the
// partition), and the reduced totals must agree to tight tolerance
// (summation order differs across partitions).
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	r := rng.New(34)
	pat := randomPatterns(t, r, 16, 250)
	tr := tree.Random(pat.Names, r)
	var refSites []float64
	var refLL float64
	for i, workers := range []int{1, 2, 4} {
		e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), workers)
		if err := e.AttachTree(tr.Clone()); err != nil {
			t.Fatal(err)
		}
		ll := e.LogLikelihood()
		sites := e.SiteLogLikelihoods(nil)
		if i == 0 {
			refLL = ll
			refSites = sites
			continue
		}
		for k := range sites {
			if sites[k] != refSites[k] {
				t.Fatalf("workers=%d: site %d log-likelihood %v differs bitwise from serial %v",
					workers, k, sites[k], refSites[k])
			}
		}
		if math.Abs(ll-refLL) > 1e-9*math.Abs(refLL) {
			t.Fatalf("workers=%d: logL %.12f differs from serial %.12f", workers, ll, refLL)
		}
	}
}

// TestPerNodeDispatchAblation asserts the benchmark ablation is honest:
// per-node dispatch produces the identical likelihood while paying one
// barrier crossing per stale node instead of one total.
func TestPerNodeDispatchAblation(t *testing.T) {
	r := rng.New(35)
	pat := randomPatterns(t, r, 24, 100)
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 2)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	batched := e.LogLikelihood()

	e.SetPerNodeDispatch(true)
	e.InvalidateAll()
	before := e.DispatchCount()
	perNode := e.LogLikelihood()
	used := e.DispatchCount() - before
	e.SetPerNodeDispatch(false)

	if perNode != batched {
		t.Fatalf("per-node dispatch changed the likelihood: %.12f vs %.12f", perNode, batched)
	}
	wantJobs := int64(pat.NumTaxa()-2) + 1 // one per stale internal view + the evaluate
	if used != wantJobs {
		t.Fatalf("per-node mode used %d dispatches, want %d", used, wantJobs)
	}
}

// TestOptimizeBranchDispatchBudget pins the synchronization cost of the
// branch optimizer, even on a fully stale tree: one job per Newton
// iteration, the first carrying the whole refresh in its descriptor —
// never one job per node.
func TestOptimizeBranchDispatchBudget(t *testing.T) {
	r := rng.New(36)
	pat := randomPatterns(t, r, 40, 120)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 2)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	e.InvalidateAll()
	edge := tr.Edges()[0]
	before := e.DispatchCount()
	e.OptimizeBranch(edge.A, edge.B)
	used := e.DispatchCount() - before
	// The old per-node engine paid ~2·taxa jobs for the refresh alone.
	if want := int64(e.LastNewtonIterations()); used != want || want > newtonMaxIter {
		t.Fatalf("OptimizeBranch on a fully stale tree used %d dispatches for %d Newton iterations (at most %d)",
			used, want, newtonMaxIter)
	}
}

// TestAbortLeavesEngineConsistent hammers the engine with evaluations
// while another goroutine repeatedly aborts whatever job is in flight.
// Aborted evaluations return garbage by contract, but the engine must
// roll its descriptor bookkeeping back, so a final undisturbed
// evaluation — with no explicit InvalidateAll — must still match a
// fresh engine exactly.
func TestAbortLeavesEngineConsistent(t *testing.T) {
	r := rng.New(37)
	pat := randomPatterns(t, r, 30, 200)
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 4)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				e.Pool().AbortJob()
			}
		}
	}()
	for i := 0; i < 50; i++ {
		e.InvalidateAll()
		_ = e.LogLikelihood() // result may be garbage; state must not be
	}
	close(stop)
	<-done

	got := e.LogLikelihood() // undisturbed, incremental on surviving CLVs
	fresh := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	if err := fresh.AttachTree(tr.Clone()); err != nil {
		t.Fatal(err)
	}
	want := fresh.LogLikelihood()
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("after abort storm: %.12f vs fresh engine %.12f", got, want)
	}
}
