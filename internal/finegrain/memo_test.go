package finegrain

import (
	"math"
	"testing"

	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/tree"
)

// memoProgram drives a 2-rank chan grid through lazy-SPR edits, model and
// per-site rate optimization, a bootstrap weight vector and a fresh tree
// — everything that fills, hits or empties the transition-matrix memo of
// the master engine and of the worker rank's — and returns every score
// and branch length it saw, as bits.
func memoProgram(t *testing.T, pat *msa.Patterns) []uint64 {
	t.Helper()
	var out []uint64
	put := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	r := rng.New(20261002)
	topo := tree.Random(pat.Names, rng.New(9))
	err := Run(2, 1, pat, makeSet(t, pat, true), func(e *likelihood.Engine, _ *Pool) error {
		if err := e.AttachTree(topo); err != nil {
			return err
		}
		put(e.LogLikelihood())
		var batch []float64
		for step := 0; step < 16; step++ {
			switch step {
			case 5:
				put(e.OptimizeModel(likelihood.ModelOptConfig{Rates: true, Rounds: 1, Tol: 1e-2}))
			case 8:
				put(e.OptimizePerSiteRates(4, 6))
			case 11:
				w := make([]int, pat.NumPatterns())
				for range w {
					w[r.Intn(len(w))]++
				}
				e.SetWeights(w)
				put(e.LogLikelihood())
			case 13:
				topo = tree.Random(pat.Names, rng.New(10))
				if err := e.AttachTree(topo); err != nil {
					return err
				}
				put(e.LogLikelihood())
			}
			edges := topo.Edges()
			edge := edges[r.Intn(len(edges))]
			root, attach := edge.A, edge.B
			if topo.Nodes[attach].IsTip() {
				root, attach = attach, root
			}
			p, err := topo.DanglingPrune(root, attach)
			if err != nil {
				continue
			}
			e.InvalidateEdge(p.OrigA, p.OrigB)
			e.InvalidateNode(attach)
			cands := topo.AppendRegraftCandidates(nil, p, 1+r.Intn(6))
			batch = e.EvaluateInsertions(root, attach, cands, batch)
			put(batch...)
			target := cands[r.Intn(len(cands))]
			if err := topo.Plug(p, target); err != nil {
				return err
			}
			e.InvalidateNode(attach)
			e.OptimizeJunction(attach)
			put(e.LogLikelihood())
			if r.Intn(2) == 0 {
				topo.UnplugKeepDangling(p, target)
				topo.PlugBack(p)
				e.InvalidateEdge(target.A, target.B)
				e.InvalidateNode(attach)
				put(e.LogLikelihood())
			}
			for _, ed := range topo.Edges() {
				put(topo.EdgeLength(ed.A, ed.B))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMemoDistributed pins the memo on both sides of the wire: a 2-rank
// grid whose master and worker engines memoize their transition matrices
// must produce every bit of the same grid with every engine bypassed —
// the worker rank rebuilds its matrices from shipped branch lengths, so
// its memo is exercised by exactly the frames the master's is.
func TestMemoDistributed(t *testing.T) {
	pat := makeData(t, 12, 500, 2, 3)
	got := memoProgram(t, pat)
	likelihood.SetMemoBypass(true)
	defer likelihood.SetMemoBypass(false)
	want := memoProgram(t, pat)
	if len(got) != len(want) {
		t.Fatalf("%d values with the memo, %d without", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("value %d: %.17g with the memo, %.17g without", i,
				math.Float64frombits(got[i]), math.Float64frombits(want[i]))
		}
	}
}
