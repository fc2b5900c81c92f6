package core

import (
	"fmt"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/finegrain"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/parsimony"
	"raxml/internal/rng"
	"raxml/internal/search"
	"raxml/internal/tree"
)

// This file wires the distributed fine grain into the analysis modes:
// the hybrid topology where -R ranks × -T threads serve ONE likelihood
// function (RAxML's _FINE_GRAIN_MPI path) instead of R independent
// coarse searches. The engine handed to each analysis is an ordinary
// likelihood.Engine whose Dispatcher is a finegrain.Pool, so the
// analysis code is byte-for-byte the single-process code — the grid is
// below the dispatcher contract.

// WithFineEngine builds a distributed R×t engine per the options and
// runs body on the master rank.
//
// With links == nil the whole grid lives in this process: opts.Ranks
// ranks, the remote ones serving goroutines over in-proc LinkPairs — the
// default for tests and for single-node runs. Otherwise rank r is
// links[r-1], a link to a worker that is already serving — the TCP
// path, where the cli has spawned worker processes; the pool's Release
// ends the lease, and closing the links stays the caller's.
//
// A rank that dies mid-run surfaces as an error carrying a
// fabric.RankDeadError (finegrain.RunRecovering), never as a panic.
func WithFineEngine(pat *msa.Patterns, opts Options, links []fabric.Link, body func(eng *likelihood.Engine) error) error {
	opts = opts.withDefaults()
	set, err := buildPartitionSet(pat, opts)
	if err != nil {
		return err
	}
	run := func(eng *likelihood.Engine) error {
		if opts.EmpiricalFreqs {
			eng.EstimateEmpiricalFreqs()
		}
		return body(eng)
	}
	if links == nil {
		return finegrain.Run(opts.Ranks, opts.Workers, pat, set, func(eng *likelihood.Engine, _ *finegrain.Pool) error {
			return finegrain.RunRecovering(run, eng)
		})
	}
	pool, err := finegrain.NewPool(links, pat, set, opts.Workers)
	if err != nil {
		return err
	}
	defer pool.Release()
	eng, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool})
	if err != nil {
		return err
	}
	return finegrain.RunRecovering(run, eng)
}

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
// the per-job unit of RunFineSearches, exposed so the grid scheduler
// can run each start as its own DAG job with its own seed stream. The
// parsimony start tree is built master-side on a temporary full-axis
// crew of opts.Workers threads, exactly as in RunFineSearches.
//
// When Options.StartTrees and Options.StartTreeKey are set, the
// stepwise-addition tree is looked up in (and on a miss, inserted into)
// the cache instead of being rebuilt. This is exact, not approximate:
// parsRNG is consumed only by stepwise addition, the search itself is
// deterministic in the start tree, and the cache stores a pristine
// Clone — so a cache-hit search reproduces the cold run bit for bit.
func SearchOn(eng *likelihood.Engine, pat *msa.Patterns, opts Options, parsRNG *rng.RNG) (*search.Result, error) {
	opts = opts.withDefaults()
	settings := settingsOr(opts.ThoroughSettings, search.Thorough())
	if opts.StartTrees != nil && opts.StartTreeKey != "" {
		if start, ok := opts.StartTrees.GetStartTree(opts.StartTreeKey); ok {
			return search.Run(eng, start, settings)
		}
	}
	parsPool := newPool(pat, opts.Workers)
	defer parsPool.Close()
	pars := parsimony.New(pat, parsPool)
	start := pars.StepwiseAddition(parsRNG)
	if opts.StartTrees != nil && opts.StartTreeKey != "" {
		opts.StartTrees.PutStartTree(opts.StartTreeKey, start.Clone())
	}
	return search.Run(eng, start, settings)
}

// EvaluateTreeFine is EvaluateTree (-f e) over the distributed fine
// grain: the fixed-topology optimization runs once, with its
// per-pattern kernels striped over opts.Ranks × opts.Workers workers.
func EvaluateTreeFine(pat *msa.Patterns, t *tree.Tree, opts Options, links []fabric.Link) (*EvaluationResult, error) {
	if t.NumTaxa() != pat.NumTaxa() {
		return nil, fmt.Errorf("core: tree has %d taxa, alignment has %d", t.NumTaxa(), pat.NumTaxa())
	}
	var res *EvaluationResult
	err := WithFineEngine(pat, opts, links, func(eng *likelihood.Engine) error {
		var err error
		res, err = evaluateOn(eng, t)
		return err
	})
	return res, err
}

// RunFineSearches is RunMultiSearch (-f d) over the distributed fine
// grain: the searches run *sequentially*, each one using the whole R×t
// grid — the complementary regime to the coarse mode's R concurrent
// searches. This is the right end of the paper's trade-off when one
// tree is wanted fast, or when a worker rank's memory cannot hold the
// full alignment's CLVs (ranks 1..R-1 hold only their stripes; the
// planning master still spans the full axis — see docs/hybrid-topology.md).
func RunFineSearches(pat *msa.Patterns, searches int, opts Options, links []fabric.Link) (*MultiSearchResult, error) {
	if searches < 1 {
		return nil, fmt.Errorf("core: %d searches requested", searches)
	}
	opts = opts.withDefaults()
	start := time.Now()
	res := &MultiSearchResult{}
	err := WithFineEngine(pat, opts, links, func(eng *likelihood.Engine) error {
		parsRNG := rng.ForRank(opts.SeedParsimony, 0)
		// Start trees are built master-side (Fitch kernels are not
		// distributed) on a full-axis crew of the master's own -T
		// threads; eng.ThreadPool() would fall back to a serial pool.
		parsPool := newPool(pat, opts.Workers)
		defer parsPool.Close()
		pars := parsimony.New(pat, parsPool)
		settings := settingsOr(opts.ThoroughSettings, search.Thorough())
		for i := 0; i < searches; i++ {
			startTree := pars.StepwiseAddition(parsRNG)
			sr, err := search.Run(eng, startTree, settings)
			if err != nil {
				return err
			}
			nw, err := tree.FormatNewick(sr.Tree, nil)
			if err != nil {
				return err
			}
			res.All = append(res.All, SearchOutcome{
				Rank: 0, Index: i,
				LogLikelihood: sr.LogLikelihood,
				Newick:        nw,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	if err := res.pickBest(pat.Names); err != nil {
		return nil, err
	}
	return res, nil
}
