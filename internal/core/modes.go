package core

import (
	"fmt"
	"sort"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/tree"
)

// This file implements the other two analysis types the paper's
// introduction lists as amenable to coarse-grained parallelization
// (their hybrid treatment "is straightforward, since they have
// essentially constant parallelism throughout"):
//
//  1. multiple maximum-likelihood searches on the same data from
//     different randomized starting trees (RAxML -f d -N), and
//  2. multiple bootstrap searches without the subsequent ML search
//     (RAxML -x/-b -N).
//
// Both distribute ceil(N/p) units to each rank, need no communication
// until the final reduction, and reuse the rank seed-offset scheme.

// SearchOutcome is one finished ML search of a multi-search analysis.
type SearchOutcome struct {
	// Rank is the rank that ran the search; Index its local index.
	Rank, Index int
	// LogLikelihood is the final optimized score.
	LogLikelihood float64
	// Newick is the final topology.
	Newick string
}

// MultiSearchResult is the outcome of RunMultiSearch.
type MultiSearchResult struct {
	// Best is the highest-scoring search.
	Best SearchOutcome
	// BestTree is Best's parsed topology.
	BestTree *tree.Tree
	// All holds every search outcome ordered by (rank, index).
	All []SearchOutcome
	// Elapsed is the wall time of the whole analysis.
	Elapsed time.Duration
}

// RunMultiSearch performs analysis type 1: `searches` independent ML
// searches from randomized stepwise-addition starting trees, distributed
// over opts.Ranks ranks with ceil(searches/p) searches each (the same
// overshoot rule as bootstraps in Table 2). The search preset is
// opts.ThoroughSettings or search.Thorough().
//
// Given links to fine-grain workers (-fine), the searches run one after
// another on a single rank whose engine is striped over them, and
// opts.Ranks is not read; nil links give the coarse grain's opts.Ranks
// ranks.
func RunMultiSearch(pat *msa.Patterns, searches int, opts Options, links []fabric.Link) (*MultiSearchResult, error) {
	opts = opts.withDefaults()
	if searches < 1 {
		return nil, fmt.Errorf("core: %d searches requested", searches)
	}
	ranks := opts.Ranks
	if len(links) > 0 {
		ranks = 1
	}
	// A start-tree key names one search; these searches have none.
	opts.StartTrees = nil
	perRank := ceilDiv(searches, ranks)
	start := time.Now()

	all := make([][]SearchOutcome, ranks)
	err := forkRanks(ranks, func(id int) error {
		r, err := newRank(pat, opts, id, links)
		if err != nil {
			return err
		}
		defer r.close()
		for i := 0; i < perRank; i++ {
			res, err := SearchOn(r.eng, pat, r.pool, opts, r.parsRNG)
			if err != nil {
				return err
			}
			nw, err := tree.FormatNewick(res.Tree, nil)
			if err != nil {
				return err
			}
			all[id] = append(all[id], SearchOutcome{
				Rank: id, Index: i,
				LogLikelihood: res.LogLikelihood,
				Newick:        nw,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &MultiSearchResult{Elapsed: time.Since(start)}
	for _, rankOutcomes := range all {
		res.All = append(res.All, rankOutcomes...)
	}
	if err := res.pickBest(pat.Names); err != nil {
		return nil, err
	}
	return res, nil
}

// pickBest sets Best to the highest-scoring outcome, ties going to the
// first in (rank, index) order, and BestTree to its parsed topology.
func (res *MultiSearchResult) pickBest(names []string) error {
	res.Best = res.All[0]
	for _, o := range res.All[1:] {
		if o.LogLikelihood > res.Best.LogLikelihood {
			res.Best = o
		}
	}
	bt, err := tree.ParseNewick(res.Best.Newick, names)
	if err != nil {
		return fmt.Errorf("core: reparsing winner: %v", err)
	}
	res.BestTree = bt
	return nil
}

// BootstrapResult is the outcome of RunBootstraps.
type BootstrapResult struct {
	// Trees holds all replicate topologies in (rank, index) order.
	Trees []*tree.Tree
	// PerRank counts replicates per rank (all equal; Table-2 rule).
	PerRank int
	// Elapsed is the wall time.
	Elapsed time.Duration
}

// RunBootstraps performs analysis type 2: rapid bootstrap replicates
// only, distributed ceil(N/p) per rank. The replicate trees (for support
// mapping or consensus building) are returned in deterministic order,
// each parsed from its Newick so that it carries the branch lengths a
// written replicate file does.
func RunBootstraps(pat *msa.Patterns, opts Options) (*BootstrapResult, error) {
	opts = opts.withDefaults()
	sched := NewSchedule(opts.Ranks, opts.Bootstraps)
	start := time.Now()

	perRank := make([][]*tree.Tree, opts.Ranks)
	err := forkRanks(opts.Ranks, func(id int) error {
		r, err := newRank(pat, opts, id, nil)
		if err != nil {
			return err
		}
		defer r.close()
		reps, err := r.bootstraps(sched.BootstrapsPerProcess)
		if err != nil {
			return err
		}
		for _, rep := range reps {
			nw, err := tree.FormatNewick(rep.Tree, nil)
			if err != nil {
				return err
			}
			t, err := tree.ParseNewick(nw, pat.Names)
			if err != nil {
				return err
			}
			perRank[id] = append(perRank[id], t)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &BootstrapResult{PerRank: sched.BootstrapsPerProcess, Elapsed: time.Since(start)}
	for _, trees := range perRank {
		res.Trees = append(res.Trees, trees...)
	}
	return res, nil
}

// buildPartitionSet assembles the per-partition model instances the
// options imply: one GTR model plus rate treatment per partition,
// optimized independently by the search stages, under linked branch
// lengths. A rank striped over fine-grain workers needs the set before
// its engine exists — the workers are initialized with its shape.
func buildPartitionSet(pat *msa.Patterns, opts Options) (*gtr.PartitionSet, error) {
	set := gtr.NewPartitionSet(pat.NumParts())
	for i, pr := range pat.PartRanges() {
		if opts.Model == GTRGAMMA {
			g, err := gtr.NewGamma(1.0, likelihood.GammaCats)
			if err != nil {
				return nil, err
			}
			set.Rates[i] = g
		} else {
			set.Rates[i] = gtr.NewUniform(pr.Len())
		}
	}
	return set, nil
}

// SortOutcomes orders search outcomes by descending log-likelihood with
// (rank, index) as the deterministic tie-break.
func SortOutcomes(outcomes []SearchOutcome) {
	sort.Slice(outcomes, func(i, j int) bool {
		if outcomes[i].LogLikelihood != outcomes[j].LogLikelihood {
			return outcomes[i].LogLikelihood > outcomes[j].LogLikelihood
		}
		if outcomes[i].Rank != outcomes[j].Rank {
			return outcomes[i].Rank < outcomes[j].Rank
		}
		return outcomes[i].Index < outcomes[j].Index
	})
}
