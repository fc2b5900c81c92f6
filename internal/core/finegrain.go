package core

import (
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/parsimony"
	"raxml/internal/rng"
	"raxml/internal/search"
	"raxml/internal/threads"
)

// This file holds what the fine grain shares with the coarse one. The
// fine grain (RAxML's _FINE_GRAIN_MPI path, -fine) has no driver of its
// own: RunMultiSearch and EvaluateTree given links to fine-grain workers
// run one rank whose engine is striped over them (newRank), and the
// grid scheduler runs SearchOn on the engines it leases. Above the
// dispatcher the analysis code is the single-process code.

// NewPartitionSet builds the per-partition model set the options
// describe — exported for the grid scheduler, whose jobs rebuild their
// model set from the origin on every re-stripe attempt (model state
// mutates during a run; a resumed attempt must not inherit a
// half-optimized set).
func NewPartitionSet(pat *msa.Patterns, opts Options) (*gtr.PartitionSet, error) {
	opts = opts.withDefaults()
	return buildPartitionSet(pat, opts)
}

// SearchOn runs ONE thorough ML search on an existing engine: stepwise-
// addition parsimony start from parsRNG, then the thorough SPR search —
// the per-search unit of RunMultiSearch and of the grid scheduler's ML
// jobs. The start tree is built master-side over the full pattern axis
// on crew, a rank's -T crew; a nil crew stands for a temporary one of
// opts.Workers threads.
//
// When Options.StartTrees and Options.StartTreeKey are set, the
// stepwise-addition tree is looked up in (and on a miss, inserted into)
// the cache instead of being rebuilt. This is exact, not approximate:
// parsRNG is consumed only by stepwise addition, the search itself is
// deterministic in the start tree, and the cache stores a pristine
// Clone — so a cache-hit search reproduces the cold run bit for bit.
func SearchOn(eng *likelihood.Engine, pat *msa.Patterns, crew *threads.Pool, opts Options, parsRNG *rng.RNG) (*search.Result, error) {
	opts = opts.withDefaults()
	settings := settingsOr(opts.ThoroughSettings, search.Thorough())
	if opts.StartTrees != nil && opts.StartTreeKey != "" {
		if start, ok := opts.StartTrees.GetStartTree(opts.StartTreeKey); ok {
			return search.Run(eng, start, settings)
		}
	}
	if crew == nil {
		crew = threads.NewPool(opts.Workers, pat.NumPatterns())
		defer crew.Close()
	}
	start := parsimony.New(pat, crew).StepwiseAddition(parsRNG)
	if opts.StartTrees != nil && opts.StartTreeKey != "" {
		opts.StartTrees.PutStartTree(opts.StartTreeKey, start.Clone())
	}
	return search.Run(eng, start, settings)
}
