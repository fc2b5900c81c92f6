package core

import (
	"fmt"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/tree"
)

// This file implements tree evaluation (RAxML's -f e): given a fixed
// user topology, optimize branch lengths and model parameters and report
// the log-likelihood. Evaluation is a single-tree operation — it uses
// only the fine-grained (worker) level of the hybrid scheme, which is
// exactly how the Pthreads-only RAxML treats it.

// EvaluationResult reports one evaluated topology.
type EvaluationResult struct {
	// Tree is the input topology with optimized branch lengths.
	Tree *tree.Tree
	// LogLikelihood is the optimized score.
	LogLikelihood float64
	// TreeLength is the optimized sum of branch lengths.
	TreeLength float64
	// Elapsed is the wall time.
	Elapsed time.Duration
}

// EvaluateTree optimizes branch lengths and (optionally, per the model
// settings implied by opts) model parameters on the fixed topology and
// returns the result. The topology itself is never changed. Given links
// to fine-grain workers, the engine is striped over them (-fine).
func EvaluateTree(pat *msa.Patterns, t *tree.Tree, opts Options, links []fabric.Link) (*EvaluationResult, error) {
	opts = opts.withDefaults()
	if t.NumTaxa() != pat.NumTaxa() {
		return nil, fmt.Errorf("core: tree has %d taxa, alignment has %d", t.NumTaxa(), pat.NumTaxa())
	}
	var res *EvaluationResult
	err := forkRanks(1, func(id int) error {
		r, err := newRank(pat, opts, id, links)
		if err != nil {
			return err
		}
		defer r.close()
		res, err = evaluateOn(r.eng, t)
		return err
	})
	return res, err
}

// evaluateOn runs the -f e optimization recipe on a rank's engine.
func evaluateOn(eng *likelihood.Engine, t *tree.Tree) (*EvaluationResult, error) {
	start := time.Now()
	work := t.Clone()
	if err := eng.AttachTree(work); err != nil {
		return nil, err
	}
	// RAxML's -f e: thorough branch-length + model optimization on the
	// fixed topology, iterated to convergence.
	ll := eng.OptimizeAllBranches(8, 0.01)
	ll = eng.OptimizeModel(likelihood.ModelOptConfig{Rates: true, Alpha: true, Rounds: 2})
	if eng.Rates().IsCAT() {
		ll = eng.OptimizePerSiteRates(25, 12)
	}
	ll = eng.OptimizeAllBranches(8, 0.001)
	return &EvaluationResult{
		Tree:          work,
		LogLikelihood: ll,
		TreeLength:    work.TotalLength(),
		Elapsed:       time.Since(start),
	}, nil
}
