// Package search implements RAxML's maximum-likelihood tree search: hill
// climbing by lazy subtree pruning and regrafting (SPR) with a bounded
// rearrangement radius, interleaved with branch-length and model
// optimization.
//
// The comprehensive analysis of the paper runs this search at three
// aggressiveness levels (its stages 2–4):
//
//   - Fast: one quick SPR pass at small radius on every 5th bootstrap
//     tree, light branch optimization, no model re-estimation.
//   - Slow: repeated SPR passes on the best fast trees with model
//     re-estimation between passes.
//   - Thorough: SPR passes at increasing radius until no improvement,
//     full model re-estimation — the final stage that, per the paper,
//     gains nothing from MPI and everything from Pthreads.
//
// One Run call is exactly the unit of coarse-grained work the paper's
// MPI layer distributes: ranks execute many Runs independently.
package search

import (
	"fmt"

	"raxml/internal/likelihood"
	"raxml/internal/tree"
)

// Settings selects the aggressiveness of one search.
type Settings struct {
	// Name tags the preset for reports ("fast", "slow", "thorough").
	Name string
	// MinRadius and MaxRadius bound the SPR rearrangement distance.
	// A pass that finds no improving move widens the radius until
	// MaxRadius, as RAxML's iterative deepening does.
	MinRadius, MaxRadius int
	// MaxPasses bounds full SPR sweeps (0 = until convergence within
	// radius schedule).
	MaxPasses int
	// Epsilon is the minimum log-likelihood gain to accept a move.
	Epsilon float64
	// BranchRounds is the number of full branch-optimization sweeps
	// between SPR passes.
	BranchRounds int
	// OptimizeModel re-estimates GTR exchangeabilities between passes.
	OptimizeModel bool
	// OptimizePerSiteRates re-estimates CAT per-site rate categories
	// (no-op for GAMMA treatments).
	OptimizePerSiteRates bool
	// MaxCats and RateGrid configure CAT re-estimation.
	MaxCats, RateGrid int
}

// Fast returns the stage-2 preset: the quick search run on every 5th
// bootstrap tree.
func Fast() Settings {
	return Settings{
		Name:      "fast",
		MinRadius: 5, MaxRadius: 5,
		MaxPasses:    1,
		Epsilon:      0.1,
		BranchRounds: 1,
	}
}

// Slow returns the stage-3 preset applied to the best fast trees.
func Slow() Settings {
	return Settings{
		Name:      "slow",
		MinRadius: 5, MaxRadius: 10,
		MaxPasses:     3,
		Epsilon:       0.05,
		BranchRounds:  2,
		OptimizeModel: true,
	}
}

// Thorough returns the stage-4 preset: search until convergence.
func Thorough() Settings {
	return Settings{
		Name:      "thorough",
		MinRadius: 5, MaxRadius: 15,
		MaxPasses:            8,
		Epsilon:              0.01,
		BranchRounds:         3,
		OptimizeModel:        true,
		OptimizePerSiteRates: true,
		MaxCats:              25,
		RateGrid:             12,
	}
}

// Bootstrap returns the stage-1 preset used inside rapid bootstrap
// replicates: the cheapest useful search.
func Bootstrap() Settings {
	return Settings{
		Name:      "bootstrap",
		MinRadius: 5, MaxRadius: 5,
		MaxPasses:    1,
		Epsilon:      0.5,
		BranchRounds: 1,
	}
}

// Result reports one finished search.
type Result struct {
	// Tree is the best topology found (the engine's attached tree).
	Tree *tree.Tree
	// LogLikelihood is the final optimized score.
	LogLikelihood float64
	// Passes counts completed SPR sweeps.
	Passes int
	// AcceptedMoves counts applied SPR moves.
	AcceptedMoves int
	// ScannedInsertions counts lazily evaluated insertion candidates —
	// the work unit of the search stages in the performance model.
	ScannedInsertions int
	// Dispatches counts pool jobs posted during the search (barrier
	// crossings of the fine-grained layer): one per scanned prune
	// however many insertions it scores, one per Newton iteration of a
	// branch (one per branch on a grid that gathers the sumtable), one
	// per full evaluation — so it grows with the prunes and branches
	// visited, not with ScannedInsertions or the tree size.
	Dispatches int64
}

// Run hill-climbs from the given starting tree under the settings and
// returns the result. The engine is (re)attached to the tree; the tree
// is modified in place.
func Run(eng *likelihood.Engine, start *tree.Tree, s Settings) (*Result, error) {
	if err := eng.AttachTree(start); err != nil {
		return nil, err
	}
	if s.MinRadius < 1 {
		s.MinRadius = 1
	}
	if s.MaxRadius < s.MinRadius {
		s.MaxRadius = s.MinRadius
	}
	res := &Result{Tree: start}
	dispatch0 := eng.DispatchCount()
	best := eng.OptimizeAllBranches(maxInt(1, s.BranchRounds), 0.01)

	radius := s.MinRadius
	passes := 0
	for {
		if s.MaxPasses > 0 && passes >= s.MaxPasses {
			break
		}
		improved, err := sprPass(eng, start, radius, s.Epsilon, &best, res)
		if err != nil {
			return nil, err
		}
		passes++
		res.Passes = passes

		if s.BranchRounds > 0 {
			best = eng.OptimizeAllBranches(s.BranchRounds, 0.01)
		}
		if s.OptimizeModel {
			best = eng.OptimizeModel(likelihood.ModelOptConfig{Rates: true, Alpha: true, Rounds: 1})
		}
		if s.OptimizePerSiteRates && eng.Rates().IsCAT() {
			best = eng.OptimizePerSiteRates(orDefault(s.MaxCats, 25), orDefault(s.RateGrid, 8))
		}
		if !improved {
			if radius >= s.MaxRadius {
				break
			}
			radius = minInt(radius*2, s.MaxRadius)
		}
	}
	res.LogLikelihood = eng.OptimizeAllBranches(maxInt(1, s.BranchRounds), 0.001)
	res.Dispatches = eng.DispatchCount() - dispatch0
	return res, nil
}

// sprPass performs one full sweep of lazy SPR over all prunable
// subtrees. It scores all of a subtree's candidate insertions with one
// engine call (one pool dispatch) and applies the best when the fully
// evaluated gain exceeds epsilon. Every topology edit invalidates only
// the views it changed (likelihood.Engine.InvalidateNode on the
// attachment node, plus InvalidateEdge on an edge healed behind it), so
// a scan reuses the views of the main tree that look away from the
// pruning point and all views into the subtree.
func sprPass(eng *likelihood.Engine, t *tree.Tree, radius int, epsilon float64, best *float64, res *Result) (bool, error) {
	improved := false
	// Enumerate candidate prunings: every directed edge (root -> attach)
	// with an internal attachment point.
	type pruning struct{ root, attach int }
	var prunings []pruning
	for _, e := range t.Edges() {
		if !t.Nodes[e.B].IsTip() {
			prunings = append(prunings, pruning{e.A, e.B})
		}
		if !t.Nodes[e.A].IsTip() {
			prunings = append(prunings, pruning{e.B, e.A})
		}
	}

	var cands []tree.Edge // reused across prunings
	var lazy []float64    // their scores, likewise
	for _, pr := range prunings {
		// The tree mutates during the pass; the recorded pruning may no
		// longer be an edge.
		if !adjacent(t, pr.root, pr.attach) || t.Nodes[pr.attach].IsTip() {
			continue
		}
		p, err := t.DanglingPrune(pr.root, pr.attach)
		if err != nil {
			continue // pruning not legal in current tree shape
		}
		eng.InvalidateEdge(p.OrigA, p.OrigB)
		eng.InvalidateNode(p.Attach)

		cands = t.AppendRegraftCandidates(cands[:0], p, radius)
		reunion := tree.Edge{A: p.OrigA, B: p.OrigB}
		if reunion.A > reunion.B {
			reunion.A, reunion.B = reunion.B, reunion.A
		}
		bestCand := reunion
		bestLazy := negInf()
		reunionLazy := negInf()
		lazy = eng.EvaluateInsertions(pr.root, p.Attach, cands, lazy)
		res.ScannedInsertions += len(cands)
		for i, cand := range cands {
			ll := lazy[i]
			if cand == reunion {
				reunionLazy = ll
			}
			if ll > bestLazy {
				bestLazy = ll
				bestCand = cand
			}
		}

		if bestCand == reunion || bestLazy <= reunionLazy {
			// No candidate looks better than staying put.
			t.PlugBack(p)
			eng.InvalidateNode(p.Attach)
			continue
		}

		// Apply the promising move for a full evaluation.
		if err := t.Plug(p, bestCand); err != nil {
			t.PlugBack(p)
			eng.InvalidateNode(p.Attach)
			return improved, fmt.Errorf("search: plug failed: %v", err)
		}
		eng.InvalidateNode(p.Attach)
		optimizeJunction(eng, p.Attach)
		full := eng.LogLikelihood()
		if full > *best+epsilon {
			*best = full
			improved = true
			res.AcceptedMoves++
			continue
		}
		// Not actually better: revert.
		t.UnplugKeepDangling(p, bestCand)
		t.PlugBack(p)
		eng.InvalidateEdge(bestCand.A, bestCand.B)
		eng.InvalidateNode(p.Attach)
	}
	return improved, nil
}

// optimizeJunction Newton-optimizes the three branches around a fresh
// insertion point — the "lazy" local optimization of RAxML's SPR. The
// engine's OptimizeJunction refreshes all six endpoint views of the
// junction with ONE combined traversal descriptor before the per-branch
// Newton loops (each of which is one dispatch per iteration, the first
// being the sumtable setup), so the move evaluation stays
// descriptor-batched right after Plug invalidated every view through
// the junction.
func optimizeJunction(eng *likelihood.Engine, attach int) {
	eng.OptimizeJunction(attach)
}

func adjacent(t *tree.Tree, a, b int) bool {
	if !t.Nodes[a].InUse || !t.Nodes[b].InUse {
		return false
	}
	for _, v := range t.Nodes[a].Neighbors {
		if v == b {
			return true
		}
	}
	return false
}

func negInf() float64 { return -1e308 }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}
