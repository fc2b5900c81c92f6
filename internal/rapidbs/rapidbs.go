// Package rapidbs implements the rapid bootstrap algorithm of
// Stamatakis, Hoover & Rougemont (2008) — stage 1 of the paper's
// comprehensive analysis (-f a -x).
//
// Each replicate resamples alignment columns into a pattern weight
// vector, then runs a very cheap SPR search. Two accelerations make the
// replicates "rapid": (i) replicates reuse the previous replicate's
// final topology as the starting tree, refreshing it with a new
// randomized stepwise-addition parsimony tree only every refreshEvery
// replicates; (ii) the per-replicate search is a single small-radius
// pass. Both are reproduced here.
package rapidbs

import (
	"fmt"

	"raxml/internal/likelihood"
	"raxml/internal/parsimony"
	"raxml/internal/rng"
	"raxml/internal/search"
	"raxml/internal/tree"
)

// refreshEvery controls how often the starting tree is rebuilt from
// scratch with randomized stepwise addition (RAxML: every 10th
// replicate).
const refreshEvery = 10

// Replicate is one finished bootstrap search.
type Replicate struct {
	// Index is the replicate number local to the generating rank.
	Index int
	// Tree is the replicate's final topology.
	Tree *tree.Tree
	// LogLikelihood is the replicate's final score under its resampled
	// weights.
	LogLikelihood float64
	// Weights is the replicate's pattern weight vector.
	Weights []int
	// Patterns is how many patterns the replicate's kernels visited: its
	// live (non-zero-weight) ones.
	Patterns int
}

// Runner generates bootstrap replicates over one engine.
type Runner struct {
	eng  *likelihood.Engine
	pars *parsimony.Engine
	// searchSettings is the per-replicate search preset.
	searchSettings search.Settings
	prev           *tree.Tree
}

// NewRunner creates a bootstrap runner sharing the engine's pool for
// both likelihood and parsimony kernels.
func NewRunner(eng *likelihood.Engine) *Runner {
	return &Runner{
		eng:            eng,
		pars:           parsimony.New(eng.Patterns(), eng.ThreadPool()),
		searchSettings: search.Bootstrap(),
	}
}

// SetSearchSettings overrides the per-replicate search preset.
func (r *Runner) SetSearchSettings(s search.Settings) { r.searchSettings = s }

// Run executes count replicates, drawing column resamplings and
// starting-tree randomizations from bsRNG (the -x seed stream) and
// parsimony insertion orders from parsRNG (the -p seed stream), exactly
// the two seed streams RAxML separates. Replicates are returned in
// generation order.
func (r *Runner) Run(count int, bsRNG, parsRNG *rng.RNG) ([]*Replicate, error) {
	if count < 0 {
		return nil, fmt.Errorf("rapidbs: negative replicate count %d", count)
	}
	out := make([]*Replicate, 0, count)
	err := r.RunRange(0, count, bsRNG, parsRNG, func(rep *Replicate) error {
		out = append(out, rep)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunRange executes replicates start..start+count-1 of a (possibly
// longer, possibly interrupted) replicate stream, invoking after for
// each finished replicate. The stepwise-addition refresh fires on the
// *absolute* index ((start+i) % refreshEvery == 0), so a run resumed
// from a checkpoint — previous tree restored via SetPrevTree, RNG
// streams restored via rng.SetState — regenerates exactly the stream an
// uninterrupted run produces. The after callback is the grid's
// checkpoint hook: it runs at the replicate boundary, the only point
// where (prev tree, RNG states, done count) fully determine the rest of
// the stream. An after error aborts the range (the replicate it saw is
// complete).
func (r *Runner) RunRange(start, count int, bsRNG, parsRNG *rng.RNG, after func(*Replicate) error) error {
	if start < 0 || count < 0 {
		return fmt.Errorf("rapidbs: bad replicate range [%d, %d)", start, start+count)
	}
	pat := r.eng.Patterns()
	for i := 0; i < count; i++ {
		abs := start + i
		weights := pat.Resample(bsRNG)
		r.eng.SetWeights(weights)
		r.pars.SetWeights(weights)

		var startTree *tree.Tree
		if abs%refreshEvery == 0 || r.prev == nil {
			startTree = r.pars.StepwiseAddition(parsRNG)
		} else {
			startTree = r.prev.Clone()
		}
		result, err := search.Run(r.eng, startTree, r.searchSettings)
		if err != nil {
			return fmt.Errorf("rapidbs: replicate %d: %v", abs, err)
		}
		// Carry the reuse chain in canonical form: round-tripping through
		// Newick renumbers internal nodes the way a checkpoint restore
		// does (trees travel as text), so a resumed stream enumerates SPR
		// moves in exactly the order the uninterrupted stream did and the
		// replay is bit-identical.
		nw, err := tree.FormatNewick(result.Tree, nil)
		if err != nil {
			return fmt.Errorf("rapidbs: replicate %d: %v", abs, err)
		}
		if r.prev, err = tree.ParseNewick(nw, pat.Names); err != nil {
			return fmt.Errorf("rapidbs: replicate %d: %v", abs, err)
		}
		rep := &Replicate{
			Index:         abs,
			Tree:          result.Tree.Clone(),
			LogLikelihood: result.LogLikelihood,
			Weights:       weights,
			Patterns:      r.eng.TilePatterns(),
		}
		if after != nil {
			if err := after(rep); err != nil {
				return err
			}
		}
	}
	// Restore original weights for subsequent full-data searches.
	r.eng.SetWeights(nil)
	r.pars.SetWeights(nil)
	return nil
}

// PrevTree returns the previous replicate's final topology (nil before
// the first replicate) — the piece of runner state a checkpoint must
// carry besides the RNG streams and the done count.
func (r *Runner) PrevTree() *tree.Tree { return r.prev }

// SetPrevTree restores the reuse chain when resuming from a checkpoint.
func (r *Runner) SetPrevTree(t *tree.Tree) { r.prev = t }

// EveryFifth returns every 5th replicate's tree (1st, 6th, ...): the
// trees the comprehensive analysis promotes to fast ML searches. The
// count follows RAxML's ceil(n/5) rule used in Table 2 of the paper.
func EveryFifth(reps []*Replicate) []*tree.Tree {
	var out []*tree.Tree
	for i := 0; i < len(reps); i += 5 {
		out = append(out, reps[i].Tree.Clone())
	}
	return out
}
