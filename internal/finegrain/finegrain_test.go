package finegrain

import (
	"fmt"
	"math"
	"testing"

	"raxml/internal/fabric"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/seqgen"
	"raxml/internal/tree"
)

// makeData synthesizes a test pattern set: unpartitioned when genes <=
// 1, otherwise `genes` equal column spans compressed partition-major.
func makeData(t testing.TB, taxa, chars, genes int, seed int64) *msa.Patterns {
	t.Helper()
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: taxa, Chars: chars, Seed: seed, TreeScale: 0.5, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if genes <= 1 {
		pat, err := msa.Compress(a)
		if err != nil {
			t.Fatal(err)
		}
		return pat
	}
	var defs []msa.PartitionDef
	per := chars / genes
	for g := 0; g < genes; g++ {
		hi := (g + 1) * per
		if g == genes-1 {
			hi = chars
		}
		defs = append(defs, msa.PartitionDef{
			ModelName: "DNA",
			Name:      "gene" + string(rune('A'+g)),
			Ranges:    []msa.SiteRange{{Lo: g * per, Hi: hi, Stride: 1}},
		})
	}
	pat, err := msa.CompressPartitioned(a, defs)
	if err != nil {
		t.Fatal(err)
	}
	return pat
}

// makeSet builds a fresh per-partition model set of the given treatment.
func makeSet(t testing.TB, pat *msa.Patterns, cat bool) *gtr.PartitionSet {
	t.Helper()
	set := gtr.NewPartitionSet(pat.NumParts())
	for i, pr := range pat.PartRanges() {
		if cat {
			set.Rates[i] = gtr.NewUniform(pr.Len())
		} else {
			g, err := gtr.NewGamma(0.8, 4)
			if err != nil {
				t.Fatal(err)
			}
			set.Rates[i] = g
		}
	}
	return set
}

// refEngine builds the single-process reference engine (its own model
// instances, one worker).
func refEngine(t testing.TB, pat *msa.Patterns, cat bool) *likelihood.Engine {
	t.Helper()
	eng, err := likelihood.NewPartitioned(pat, makeSet(t, pat, cat), likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Abs(b); m > 1 {
		return d / m
	}
	return d
}

// TestGoldenDistributedLikelihood pins the 2-rank x 2-thread
// distributed likelihood to the single-process reference at 1e-10
// relative, for CAT and GAMMA, partitioned and unpartitioned: plain
// evaluation, evaluation at several edges, per-partition components,
// site log-likelihoods, and (at a looser optimizer tolerance) the
// branch-length optimization endpoint.
func TestGoldenDistributedLikelihood(t *testing.T) {
	cases := []struct {
		name  string
		genes int
		cat   bool
	}{
		{"CAT/unpartitioned", 1, true},
		{"CAT/partitioned", 3, true},
		{"GAMMA/unpartitioned", 1, false},
		{"GAMMA/partitioned", 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pat := makeData(t, 12, 900, tc.genes, 7)
			topo := tree.Random(pat.Names, rng.New(99))

			ref := refEngine(t, pat, tc.cat)
			if err := ref.AttachTree(topo.Clone()); err != nil {
				t.Fatal(err)
			}
			wantLL := ref.LogLikelihood()
			wantParts := ref.PartitionLogLikelihoods(nil)
			wantSite := ref.SiteLogLikelihoods(nil)
			edges := topo.Edges()
			wantEdge := make([]float64, 0, 4)
			for i := 0; i < 4; i++ {
				e := edges[(i*7)%len(edges)]
				wantEdge = append(wantEdge, ref.EvaluateEdge(e.A, e.B))
			}
			wantOpt := ref.OptimizeAllBranches(2, 0.01)

			err := Run(2, 2, pat, makeSet(t, pat, tc.cat), func(eng *likelihood.Engine, pool *Pool) error {
				if err := eng.AttachTree(topo.Clone()); err != nil {
					return err
				}
				if got := eng.LogLikelihood(); relDiff(got, wantLL) > 1e-10 {
					t.Errorf("LogLikelihood: distributed %.12f vs reference %.12f", got, wantLL)
				}
				gotParts := eng.PartitionLogLikelihoods(nil)
				sum := 0.0
				for i, got := range gotParts {
					sum += got
					if relDiff(got, wantParts[i]) > 1e-10 {
						t.Errorf("partition %d component: distributed %.12f vs reference %.12f", i, got, wantParts[i])
					}
				}
				if relDiff(sum, wantLL) > 1e-10 {
					t.Errorf("partition components sum %.12f vs total %.12f", sum, wantLL)
				}
				gotSite := eng.SiteLogLikelihoods(nil)
				for k := range gotSite {
					if relDiff(gotSite[k], wantSite[k]) > 1e-10 {
						t.Fatalf("site %d log-likelihood: distributed %.12f vs reference %.12f", k, gotSite[k], wantSite[k])
					}
				}
				for i := 0; i < 4; i++ {
					e := edges[(i*7)%len(edges)]
					if got := eng.EvaluateEdge(e.A, e.B); relDiff(got, wantEdge[i]) > 1e-10 {
						t.Errorf("edge (%d, %d): distributed %.12f vs reference %.12f", e.A, e.B, got, wantEdge[i])
					}
				}
				if got := eng.OptimizeAllBranches(2, 0.01); relDiff(got, wantOpt) > 1e-8 {
					t.Errorf("OptimizeAllBranches: distributed %.12f vs reference %.12f", got, wantOpt)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOneBroadcastOneReductionPerDispatch asserts the acceptance
// invariant: a partitioned full-tree relikelihood over the finegrain
// pool is exactly one descriptor broadcast plus one reduction per pool
// dispatch, measured at the transport's collective counters.
func TestOneBroadcastOneReductionPerDispatch(t *testing.T) {
	pat := makeData(t, 10, 800, 3, 11)
	topo := tree.Random(pat.Names, rng.New(5))
	err := Run(2, 2, pat, makeSet(t, pat, true), func(eng *likelihood.Engine, pool *Pool) error {
		if err := eng.AttachTree(topo.Clone()); err != nil {
			return err
		}
		eng.LogLikelihood() // warm: arena bound, first model block shipped
		stats := pool.Transport().Stats()

		for step := 0; step < 3; step++ {
			d0 := eng.DispatchCount()
			b0 := stats.Broadcasts.Load()
			r0 := stats.Reductions.Load()
			eng.InvalidateAll() // full tree goes stale
			ll := eng.LogLikelihood()
			if math.IsNaN(ll) {
				t.Fatal("NaN likelihood")
			}
			if d := eng.DispatchCount() - d0; d != 1 {
				t.Fatalf("full-tree relikelihood used %d dispatches, want 1", d)
			}
			if b := stats.Broadcasts.Load() - b0; b != 1 {
				t.Fatalf("full-tree relikelihood used %d broadcasts, want 1", b)
			}
			if r := stats.Reductions.Load() - r0; r != 1 {
				t.Fatalf("full-tree relikelihood used %d reductions, want 1", r)
			}
		}

		// The per-partition decomposition rides the same single dispatch.
		d0 := eng.DispatchCount()
		b0 := stats.Broadcasts.Load()
		eng.InvalidateAll()
		eng.PartitionLogLikelihoods(nil)
		if d := eng.DispatchCount() - d0; d != 1 {
			t.Fatalf("PartitionLogLikelihoods used %d dispatches, want 1", d)
		}
		if b := stats.Broadcasts.Load() - b0; b != 1 {
			t.Fatalf("PartitionLogLikelihoods used %d broadcasts, want 1", b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSPRFuzzDistributed drives the distributed engine through a random
// sequence of SPR moves, branch-length edits and evaluations at random
// edges — the arena fuzz test's program, run over the finegrain pool —
// asserting after every step that the distributed incremental
// likelihood matches a fresh single-process engine.
func TestSPRFuzzDistributed(t *testing.T) {
	r := rng.New(20260729)
	pat := makeData(t, 12, 700, 2, 3)
	topo := tree.Random(pat.Names, r)

	err := Run(2, 2, pat, makeSet(t, pat, true), func(eng *likelihood.Engine, pool *Pool) error {
		if err := eng.AttachTree(topo); err != nil {
			return err
		}
		eng.LogLikelihood()

		check := func(step int, op string) {
			edges := topo.Edges()
			edge := edges[r.Intn(len(edges))]
			got := eng.EvaluateEdge(edge.A, edge.B)
			fresh := refEngine(t, pat, true)
			if err := fresh.AttachTree(topo.Clone()); err != nil {
				t.Fatal(err)
			}
			want := fresh.LogLikelihood()
			if relDiff(got, want) > 1e-9 {
				t.Fatalf("step %d (%s): distributed %.12f vs fresh %.12f", step, op, got, want)
			}
		}

		for step := 0; step < 20; step++ {
			switch r.Intn(3) {
			case 0: // SPR: prune a random subtree, regraft into a random edge
				edges := topo.Edges()
				var p *tree.PrunedSubtree
				var err error
				for try := 0; try < 50 && p == nil; try++ {
					edge := edges[r.Intn(len(edges))]
					if topo.Nodes[edge.B].IsTip() {
						continue
					}
					p, err = topo.Prune(edge.A, edge.B)
					if err != nil {
						p = nil
					}
				}
				if p == nil {
					continue
				}
				// Regraft targets must lie in the main component (Regraft
				// does not reject edges inside the pruned subtree).
				rem := topo.RegraftCandidates(p, 1<<20)
				if err := topo.Regraft(p, rem[r.Intn(len(rem))]); err != nil {
					topo.Restore(p)
					continue
				}
				eng.InvalidateAll()
				check(step, "spr")
			case 1: // branch-length edit with precise invalidation
				edges := topo.Edges()
				edge := edges[r.Intn(len(edges))]
				topo.SetEdgeLength(edge.A, edge.B, topo.EdgeLength(edge.A, edge.B)*(0.5+r.Float64()))
				eng.InvalidateEdge(edge.A, edge.B)
				check(step, "brlen")
			default: // pure evaluation (cache reads only)
				check(step, "eval")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The lockstep half optimizes junctions, so it runs once per answer
	// to "who sums the Newton derivatives": as built (a sumtable this
	// small is gathered), and with the distributed core job forced.
	t.Run("lockstep", func(t *testing.T) { sprLockstepDistributed(t, pat, topo) })
	t.Run("lockstep, distributed core", func(t *testing.T) {
		forceGather(t, false)
		sprLockstepDistributed(t, pat, topo)
	})
}

// sprLockstepDistributed is the lazy-SPR half of the fuzz program: two
// 2-rank x 1-thread distributed engines over two copies of one tree go
// through random dangling prunes, full candidate scans, plugs with
// junction optimization and accept-or-revert — the edits of
// search.sprPass. One invalidates precisely (InvalidateEdge /
// InvalidateNode: surviving views stay bound on every rank, no model
// block ships) and scores each prune with a single EvaluateInsertions
// call — one frame, one partial of N wide values per rank; the other
// invalidates everything after every edit and scores the candidates
// with one one-candidate call each. Same rank grid, same reduction
// order: every scored insertion and every likelihood must agree bit for
// bit.
func sprLockstepDistributed(t *testing.T, pat *msa.Patterns, topo *tree.Tree) {
	r := rng.New(20260930)
	same := func(step int, what string, x, y float64) {
		t.Helper()
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("step %d (%s): precise %.17g vs invalidate-all %.17g", step, what, x, y)
		}
	}
	ta, tb := topo.Clone(), topo.Clone()
	err := Run(2, 1, pat, makeSet(t, pat, true), func(a *likelihood.Engine, _ *Pool) error {
		return Run(2, 1, pat, makeSet(t, pat, true), func(b *likelihood.Engine, _ *Pool) error {
			if err := a.AttachTree(ta); err != nil {
				return err
			}
			if err := b.AttachTree(tb); err != nil {
				return err
			}
			same(-1, "start", a.LogLikelihood(), b.LogLikelihood())
			blocks0 := a.ModelBlocksEncoded()
			var batch []float64
			for step := 0; step < 12; step++ {
				edges := ta.Edges()
				edge := edges[r.Intn(len(edges))]
				root, attach := edge.A, edge.B
				if ta.Nodes[attach].IsTip() {
					root, attach = attach, root
				}
				pa, err := ta.DanglingPrune(root, attach)
				if err != nil {
					continue
				}
				pb, err := tb.DanglingPrune(root, attach)
				if err != nil {
					return err
				}
				a.InvalidateEdge(pa.OrigA, pa.OrigB)
				a.InvalidateNode(attach)
				b.InvalidateAll()
				cands := ta.RegraftCandidates(pa, 1+r.Intn(6))
				d0 := a.DispatchCount()
				batch = a.EvaluateInsertions(root, attach, cands, batch)
				if d := a.DispatchCount() - d0; d != 1 {
					return fmt.Errorf("step %d: %d candidates cost %d dispatches, want 1", step, len(cands), d)
				}
				for i, c := range cands {
					same(step, "scan", batch[i], b.EvaluateInsertion(root, attach, c.A, c.B))
				}
				target := cands[r.Intn(len(cands))]
				if err := ta.Plug(pa, target); err != nil {
					return err
				}
				if err := tb.Plug(pb, target); err != nil {
					return err
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
			}
			if n := a.ModelBlocksEncoded() - blocks0; n != 0 {
				t.Errorf("precise engine shipped %d model blocks over topology-only edits, want 0", n)
			}
			if b.ModelBlocksEncoded() == 0 {
				t.Error("reference engine shipped no model block: the reference is not invalidating everything")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistributedModelOptimization exercises the model-sync path: model
// parameters optimized on the distributed engine must track the
// single-process reference (same coordinate-descent program, so the
// endpoints agree to optimizer precision), including per-site CAT rate
// estimation, which stresses SiteLL vector collection and repeated
// treatment swaps.
func TestDistributedModelOptimization(t *testing.T) {
	pat := makeData(t, 10, 600, 2, 13)
	topo := tree.Random(pat.Names, rng.New(17))

	ref := refEngine(t, pat, true)
	if err := ref.AttachTree(topo.Clone()); err != nil {
		t.Fatal(err)
	}
	ref.EstimateEmpiricalFreqs()
	refLL := ref.OptimizeModel(likelihood.ModelOptConfig{Rates: true, Rounds: 1})
	refLL = ref.OptimizePerSiteRates(8, 6)

	err := Run(3, 2, pat, makeSet(t, pat, true), func(eng *likelihood.Engine, pool *Pool) error {
		if err := eng.AttachTree(topo.Clone()); err != nil {
			return err
		}
		eng.EstimateEmpiricalFreqs()
		got := eng.OptimizeModel(likelihood.ModelOptConfig{Rates: true, Rounds: 1})
		got = eng.OptimizePerSiteRates(8, 6)
		if relDiff(got, refLL) > 1e-8 {
			t.Errorf("optimized lnL: distributed %.12f vs reference %.12f", got, refLL)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBootstrapWeightsDistributed exercises SetWeights (a bootstrap
// replicate's weight vector) across the wire.
func TestBootstrapWeightsDistributed(t *testing.T) {
	pat := makeData(t, 10, 500, 2, 23)
	topo := tree.Random(pat.Names, rng.New(31))
	w := pat.Resample(rng.New(77))

	ref := refEngine(t, pat, true)
	if err := ref.AttachTree(topo.Clone()); err != nil {
		t.Fatal(err)
	}
	ref.SetWeights(w)
	want := ref.LogLikelihood()

	err := Run(2, 1, pat, makeSet(t, pat, true), func(eng *likelihood.Engine, pool *Pool) error {
		if err := eng.AttachTree(topo.Clone()); err != nil {
			return err
		}
		eng.LogLikelihood() // original weights first: the sync must replace them
		eng.SetWeights(w)
		if got := eng.LogLikelihood(); relDiff(got, want) > 1e-10 {
			t.Errorf("bootstrap weights: distributed %.12f vs reference %.12f", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReattachTreeDistributed covers the tile-reset marker: a second
// AttachTree must not leak CLVs across topologies on remote ranks.
func TestReattachTreeDistributed(t *testing.T) {
	pat := makeData(t, 10, 400, 1, 41)
	t1 := tree.Random(pat.Names, rng.New(1))
	t2 := tree.Random(pat.Names, rng.New(2))

	ref := refEngine(t, pat, true)
	if err := ref.AttachTree(t2.Clone()); err != nil {
		t.Fatal(err)
	}
	want := ref.LogLikelihood()

	err := Run(2, 2, pat, makeSet(t, pat, true), func(eng *likelihood.Engine, pool *Pool) error {
		if err := eng.AttachTree(t1.Clone()); err != nil {
			return err
		}
		eng.LogLikelihood()
		if err := eng.AttachTree(t2.Clone()); err != nil {
			return err
		}
		if got := eng.LogLikelihood(); relDiff(got, want) > 1e-10 {
			t.Errorf("after re-attach: distributed %.12f vs reference %.12f", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPTransportDistributed runs the same golden comparison over the
// real TCP transport: a listening master and two dialing worker
// goroutines exchanging length-prefixed frames through the loopback —
// the in-process twin of the spawned-process worker mode.
func TestTCPTransportDistributed(t *testing.T) {
	pat := makeData(t, 10, 600, 2, 53)
	topo := tree.Random(pat.Names, rng.New(9))

	ref := refEngine(t, pat, true)
	if err := ref.AttachTree(topo.Clone()); err != nil {
		t.Fatal(err)
	}
	want := ref.LogLikelihood()

	const ranks = 3
	master, err := fabric.ListenTCP("127.0.0.1:0", ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	serveErr := make(chan error, ranks-1)
	for r := 1; r < ranks; r++ {
		go func(r int) {
			wt, err := fabric.DialTCP(master.Addr(), r, ranks)
			if err != nil {
				serveErr <- err
				return
			}
			defer wt.Close()
			serveErr <- Serve(wt)
		}(r)
	}
	if err := master.Accept(); err != nil {
		t.Fatal(err)
	}

	set := makeSet(t, pat, true)
	pool, err := NewPool(master, pat, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AttachTree(topo.Clone()); err != nil {
		t.Fatal(err)
	}
	stats := master.Stats()
	b0 := stats.Broadcasts.Load()
	got := eng.LogLikelihood()
	if relDiff(got, want) > 1e-10 {
		t.Errorf("TCP distributed %.12f vs reference %.12f", got, want)
	}
	if b := stats.Broadcasts.Load() - b0; b != 1 {
		t.Errorf("TCP relikelihood used %d broadcasts, want 1", b)
	}
	pool.Close()
	for r := 1; r < ranks; r++ {
		if err := <-serveErr; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
}

// TestStripesPartitionAligned asserts rank stripes snap to the same
// 16-pattern quantum, relative to partition starts, as thread stripes.
func TestStripesPartitionAligned(t *testing.T) {
	pat := makeData(t, 10, 1600, 3, 61)
	err := Run(2, 1, pat, makeSet(t, pat, true), func(eng *likelihood.Engine, pool *Pool) error {
		starts := pat.PartStarts()
		for r, s := range pool.Stripes() {
			if s.Len() == 0 {
				t.Fatalf("rank %d stripe empty", r)
			}
			if r == 0 {
				continue
			}
			// The stripe boundary must be a 16-multiple relative to the
			// start of the partition containing it (or a partition start).
			b := s.Lo
			seg := 0
			for _, st := range starts {
				if st <= b {
					seg = st
				}
			}
			if (b-seg)%16 != 0 {
				t.Errorf("rank %d stripe starts at %d, offset %d from segment start %d not a 16-multiple",
					r, b, b-seg, seg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkerErrorSurfaces ensures a failing worker produces an error on
// the master rather than a hang.
func TestWorkerErrorSurfaces(t *testing.T) {
	trs := fabric.NewChanTransports(2)
	done := make(chan error, 1)
	go func() {
		// Misbehaving master: sends a garbage init frame.
		err := trs[0].Send(1, TagInit, []byte{1, 2, 3})
		done <- err
	}()
	if err := Serve(trs[1]); err == nil {
		t.Fatal("Serve accepted a garbage init frame")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	trs[0].Close()
}

// TestMakenewzWireTraffic is the distributed cost-model regression for
// the two-phase eigen-basis makenewz over 2 ranks, one case per answer to
// "who sums".
//
// Gathered: a full OptimizeBranch costs exactly ONE broadcast and ONE
// rank-ordered reduction however many Newton iterations it runs — the
// JobMakenewzSetup frame carries the refresh descriptor, the two views
// and the factor block, its partial brings the remote stripe's sumtable
// rows home, and every derivative is reduced on the master — on fresh
// endpoint views and on stale ones alike. LastNewtonIterations still
// counts the iterations.
//
// Distributed: it costs exactly LastNewtonIterations() broadcasts — the
// setup frame, then ONE JobMakenewzCore frame per further iteration —
// each paired with exactly one reduction, and the warm frames stay tiny
// (eigen exponential factors only: no per-iteration model-sync block, no
// P matrices). A model block on this workload ships the full weight
// vector and would blow the per-frame bound immediately.
func TestMakenewzWireTraffic(t *testing.T) {
	for _, gathered := range []bool{true, false} {
		name := "distributed"
		if gathered {
			name = "gathered"
		}
		t.Run(name, func(t *testing.T) {
			forceGather(t, gathered)
			makenewzWireTraffic(t, gathered)
		})
	}
}

func makenewzWireTraffic(t *testing.T, gathered bool) {
	pat := makeData(t, 12, 300, 1, 9)
	set := makeSet(t, pat, false) // GAMMA: 4 matrix categories, 1 partition
	err := Run(2, 2, pat, set, func(eng *likelihood.Engine, pool *Pool) error {
		tr := tree.Random(pat.Names, rng.New(4))
		if err := eng.AttachTree(tr); err != nil {
			return err
		}
		a := 0
		b := tr.Nodes[0].Neighbors[0]
		eng.OptimizeBranch(a, b) // warm: tiles bound, model epoch shipped
		_ = eng.LogLikelihood()  // leaves both endpoint views of (a, b) fresh
		st := pool.Transport().Stats()

		// optimize runs one OptimizeBranch from a length far off the
		// optimum (so it takes several iterations) and checks the call's
		// dispatches, broadcasts and reductions against the case's rule;
		// it returns the dispatch count and the bytes the master sent.
		optimize := func(views string) (dispatches, sent int64) {
			tr.SetEdgeLength(a, b, 0.9)
			eng.InvalidateEdge(a, b)
			_ = eng.LogLikelihood()
			d0, b0, r0 := eng.DispatchCount(), st.Broadcasts.Load(), st.Reductions.Load()
			by0 := st.BytesSent.Load()
			eng.OptimizeBranch(a, b)
			iters := int64(eng.LastNewtonIterations())
			if iters < 3 {
				t.Errorf("%s views: %d Newton iterations from a perturbed length, want a real Newton loop", views, iters)
			}
			want := iters
			if gathered {
				want = 1
			}
			dd, bb, rr := eng.DispatchCount()-d0, st.Broadcasts.Load()-b0, st.Reductions.Load()-r0
			if dd != want || bb != want || rr != want {
				t.Errorf("OptimizeBranch over %s views: %d dispatches, %d broadcasts, %d reductions for %d Newton iterations, want %d of each",
					views, dd, bb, rr, iters, want)
			}
			return dd, st.BytesSent.Load() - by0
		}

		dd, sent := optimize("fresh")
		// Per-frame average over the warm setup + core frames. The core
		// frame is header + 3×(4·nCats) float64 ≈ 410 bytes here, the
		// setup frame two views more; a model-sync block alone would add
		// >1200 bytes of weights. (What a gathered branch moves is on the
		// receive side: the rows.)
		frames := dd * int64(pool.Transport().Size()-1)
		if perFrame := float64(sent) / float64(frames); perFrame > 600 {
			t.Errorf("average makenewz frame is %.0f bytes; iterations must ship only eigen factors", perFrame)
		}
		if gathered {
			by0 := st.BytesRecv.Load()
			optimize("fresh")
			rows := int64(pat.NumPatterns()-pool.Stripes()[0].Len()) * 4 * 4 * 8
			if got := st.BytesRecv.Load() - by0; got < rows || got > rows+64 {
				t.Errorf("the gathered setup partial is %d bytes for %d bytes of remote rows", got, rows)
			}
		}

		// Stale endpoint views: the refresh rides the setup frame's
		// descriptor, so the count does not move.
		far := tr.Edges()[len(tr.Edges())/2]
		tr.SetEdgeLength(far.A, far.B, 2*tr.EdgeLength(far.A, far.B))
		eng.InvalidateEdge(far.A, far.B)
		tr.SetEdgeLength(a, b, 0.9)
		eng.InvalidateEdge(a, b)
		d0, b0, r0 := eng.DispatchCount(), st.Broadcasts.Load(), st.Reductions.Load()
		eng.OptimizeBranch(a, b)
		want := int64(eng.LastNewtonIterations())
		if gathered {
			want = 1
		}
		if dd, bb, rr := eng.DispatchCount()-d0, st.Broadcasts.Load()-b0, st.Reductions.Load()-r0; dd != want || bb != want || rr != want {
			t.Errorf("OptimizeBranch over stale views: %d dispatches, %d broadcasts, %d reductions for %d Newton iterations, want %d of each",
				dd, bb, rr, eng.LastNewtonIterations(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkerSessionsReuseAndRelease exercises the grid lease protocol:
// one ServeSessions worker serves two successive pools — different
// data, different stripe geometry — with a Release (not a shutdown)
// between them, plus the idle-loop liveness probe and the idempotent
// stray-release ack.
func TestWorkerSessionsReuseAndRelease(t *testing.T) {
	trs := fabric.NewChanTransports(2)
	served := make(chan error, 1)
	go func() { served <- ServeSessions(trs[1]) }()

	lease := func(seed int64, chars int) {
		pat := makeData(t, 10, chars, 2, seed)
		topo := tree.Random(pat.Names, rng.New(seed))
		ref := refEngine(t, pat, true)
		if err := ref.AttachTree(topo.Clone()); err != nil {
			t.Fatal(err)
		}
		want := ref.LogLikelihood()

		set := makeSet(t, pat, true)
		pool, err := NewPool(trs[0], pat, set, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.AttachTree(topo.Clone()); err != nil {
			t.Fatal(err)
		}
		if got := eng.LogLikelihood(); relDiff(got, want) > 1e-10 {
			t.Errorf("session (seed %d): distributed %.12f vs reference %.12f", seed, got, want)
		}
		if dead := pool.Release(); len(dead) != 0 {
			t.Fatalf("Release reported dead ranks %v on a healthy worker", dead)
		}
	}

	// Idle-loop probe before any lease.
	if err := trs[0].Send(1, TagPing, nil); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := trs[0].Recv(1); err != nil || tag != TagPong {
		t.Fatalf("ping got (%d, %v), want TagPong", tag, err)
	}
	// Stray release (lease whose init never happened) acks idempotently.
	if err := trs[0].Send(1, TagRelease, nil); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := trs[0].Recv(1); err != nil || tag != TagReleased {
		t.Fatalf("stray release got (%d, %v), want TagReleased", tag, err)
	}

	lease(101, 500) // first session
	lease(202, 700) // reuse: new geometry over the same worker

	// Terminal shutdown ends the idle loop cleanly.
	if err := trs[0].Send(1, TagShutdown, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("worker exited with %v", err)
	}
	trs[0].Close()
}
