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

// liveOnly returns pat's patterns of non-zero weight in w, weighted by w,
// as a pattern set of their own (partitions kept), and their indices.
func liveOnly(pat *msa.Patterns, w []int) (*msa.Patterns, []int) {
	var keep, weights []int
	var parts []msa.PartRange
	for _, pr := range pat.PartRanges() {
		lo := len(keep)
		for k := pr.Lo; k < pr.Hi; k++ {
			if w[k] != 0 {
				keep = append(keep, k)
				weights = append(weights, w[k])
			}
		}
		parts = append(parts, msa.PartRange{Name: pr.Name, Lo: lo, Hi: len(keep)})
	}
	data := make([][]msa.State, pat.NumTaxa())
	for i, row := range pat.Data {
		for _, k := range keep {
			data[i] = append(data[i], row[k])
		}
	}
	return msa.FromParts(pat.Names, data, weights, parts), keep
}

// scanOnce dangles the first prunable subtree of the engine's tree,
// scores its regraft candidates, and plugs it back.
func scanOnce(t *testing.T, e *Engine) []float64 {
	t.Helper()
	tr := e.Tree()
	for _, ed := range tr.Edges() {
		if tr.Nodes[ed.B].IsTip() {
			continue
		}
		p, err := tr.DanglingPrune(ed.A, ed.B)
		if err != nil {
			continue
		}
		e.InvalidateEdge(p.OrigA, p.OrigB)
		e.InvalidateNode(p.Attach)
		out := e.EvaluateInsertions(ed.A, p.Attach, tr.AppendRegraftCandidates(nil, p, 4), nil)
		tr.PlugBack(p)
		e.InvalidateNode(p.Attach)
		return out
	}
	t.Fatal("no prunable subtree")
	return nil
}

// TestReplicateRunsOnLivePatterns pins what a replicate's zero-weight
// patterns may change: nothing. A one-worker engine under a resampled
// weight vector must compute, bit for bit, what an engine built on the
// alignment without the dead patterns computes — likelihoods, per-
// partition components, optimized branch lengths, insertion scores, site
// log-likelihoods and model optimization — for both rate treatments, one
// partition or three, while visiting only the live patterns.
func TestReplicateRunsOnLivePatterns(t *testing.T) {
	a := randomAlignment(t, rng.New(61), 12, 300)
	tr := tree.Random(a.Names, rng.New(62))
	for _, tc := range []struct {
		name  string
		parts int
		cat   bool
	}{{"cat", 1, true}, {"gamma", 1, false}, {"cat/3parts", 3, true}, {"gamma/3parts", 3, false}} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
				if tc.cat {
					return gtr.Default(), contentCAT(pat, pr.Lo, pr.Hi, []float64{0.3, 1, 2.6})
				}
				g, err := gtr.NewGamma(0.7, 4)
				if err != nil {
					t.Fatal(err)
				}
				return gtr.Default(), g
			}
			full, pat := partitionedEngine(t, a, tc.parts, 1, mk)
			w := pat.Resample(rng.New(63))
			full.SetWeights(w)
			livePat, keep := liveOnly(pat, w)
			if got := full.TilePatterns(); got != len(keep) || got == pat.NumPatterns() {
				t.Fatalf("engine visits %d patterns, the replicate has %d live of %d", got, len(keep), pat.NumPatterns())
			}
			set := &gtr.PartitionSet{}
			for _, pr := range livePat.PartRanges() {
				m, rc := mk(livePat, pr)
				set.Models = append(set.Models, m)
				set.Rates = append(set.Rates, rc)
			}
			ref, err := NewPartitioned(livePat, set, Config{Pool: threads.NewPool(1, livePat.NumPatterns())})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []*Engine{full, ref} {
				if err := e.AttachTree(tr.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			same := func(what string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: %.17g on the tile axis, %.17g on the live alignment", what, got, want)
				}
			}
			same("lnL", full.LogLikelihood(), ref.LogLikelihood())
			fp, rp := full.PartitionLogLikelihoods(nil), ref.PartitionLogLikelihoods(nil)
			for i := range fp {
				same("partition lnL", fp[i], rp[i])
			}
			same("optimized lnL", full.OptimizeAllBranches(2, 0.01), ref.OptimizeAllBranches(2, 0.01))
			for _, ed := range full.Tree().Edges() {
				same("branch length", full.Tree().EdgeLength(ed.A, ed.B), ref.Tree().EdgeLength(ed.A, ed.B))
			}
			fs, rs := scanOnce(t, full), scanOnce(t, ref)
			for i := range fs {
				same("insertion score", fs[i], rs[i])
			}
			fSite, rSite := full.SiteLogLikelihoods(nil), ref.SiteLogLikelihoods(nil)
			for k, x := range fSite {
				if w[k] == 0 && x != 0 {
					t.Fatalf("dead pattern %d has site lnL %g, want 0", k, x)
				}
			}
			for i, k := range keep {
				same("site lnL", fSite[k], rSite[i])
			}
			cfg := ModelOptConfig{Rates: true, Alpha: true, Rounds: 1}
			same("model-optimized lnL", full.OptimizeModel(cfg), ref.OptimizeModel(cfg))
		})
	}
}

// TestRestoredWeightsRestoreBits checks the way back: a replicate's
// compaction and the restore to the alignment's weights leave no trace
// in the next full-data likelihood, on a crew that cuts its ranges
// around dead patterns.
func TestRestoredWeightsRestoreBits(t *testing.T) {
	pat := randomPatterns(t, rng.New(64), 10, 200)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 2)
	if err := e.AttachTree(tree.Random(pat.Names, rng.New(65))); err != nil {
		t.Fatal(err)
	}
	before := e.LogLikelihood()
	e.SetWeights(pat.Resample(rng.New(66)))
	if e.TilePatterns() == pat.NumPatterns() {
		t.Fatal("the replicate dropped no pattern")
	}
	e.LogLikelihood()
	e.SetWeights(nil)
	if e.TilePatterns() != pat.NumPatterns() {
		t.Fatalf("restored engine visits %d of %d patterns", e.TilePatterns(), pat.NumPatterns())
	}
	if after := e.LogLikelihood(); math.Float64bits(after) != math.Float64bits(before) {
		t.Fatalf("lnL after a replicate %.17g, before %.17g", after, before)
	}
}
