// Package raxml is a Go reproduction of the hybrid MPI/Pthreads
// parallelization of the RAxML phylogenetics code described by Pfeiffer
// & Stamatakis (IPDPS/IPPS Workshops 2010).
//
// The package is a facade over the internal engine:
//
//   - Alignment handling and site-pattern compression (internal/msa),
//   - a GTR+CAT/GAMMA maximum-likelihood engine with SPR search
//     (internal/{gtr,likelihood,search}),
//   - randomized stepwise-addition parsimony starting trees
//     (internal/parsimony),
//   - the rapid bootstrap algorithm (internal/rapidbs),
//   - the paper's hybrid comprehensive analysis: coarse-grained ranks
//     (goroutines standing in for MPI processes, their results folded
//     in rank order after they join) each running pattern-parallel
//     workers (internal/threads, the Pthreads analogue), orchestrated by
//     internal/core,
//   - split tallies over replicate sets: support values, consensus trees
//     (internal/tree, internal/consensus) and the WC bootstopping test
//     (internal/bootstop) that closes each adaptive round of the grid
//     scheduler (internal/grid), and
//   - a calibrated performance model of the paper's four benchmark
//     clusters (internal/perfmodel) with generators for every table and
//     figure (internal/figures).
//
// The quickest path from data to an annotated best tree:
//
//	pat, err := raxml.ParseAlignment(data)
//	res, err := raxml.Comprehensive(pat, raxml.Options{
//		Bootstraps: 100, Ranks: 4, Workers: 2,
//		SeedParsimony: 12345, SeedBootstrap: 12345,
//	})
//	fmt.Println(res.AnnotatedNewick())
package raxml

import (
	"bytes"
	"fmt"
	"os"

	"raxml/internal/consensus"
	"raxml/internal/core"
	"raxml/internal/msa"
	"raxml/internal/seqgen"
	"raxml/internal/tree"
)

// Options configures a comprehensive analysis; it is core.Options
// re-exported.
type Options = core.Options

// Result is the outcome of a comprehensive analysis.
type Result struct {
	*core.Result
}

// AnnotatedNewick renders the best tree with bootstrap support values.
func (r *Result) AnnotatedNewick() (string, error) {
	return tree.FormatNewick(r.BestTree, r.Support)
}

// GTRCAT is the CAT model type selector, re-exported.
const GTRCAT = core.GTRCAT

// Patterns is a compressed alignment, the input of every analysis.
type Patterns = msa.Patterns

// ParseAlignment reads PHYLIP or FASTA data (auto-detected) and
// compresses it to site patterns.
func ParseAlignment(data []byte) (*Patterns, error) {
	a, err := msa.Sniff(data)
	if err != nil {
		return nil, err
	}
	return msa.Compress(a)
}

// LoadAlignment reads and compresses an alignment file.
func LoadAlignment(path string) (*Patterns, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("raxml: %v", err)
	}
	return ParseAlignment(data)
}

// ParsePartitionedAlignment reads alignment data together with a RAxML
// -q partition file: every gene is compressed to its own pattern block
// and analyzed under its own model instance (per-partition frequencies,
// exchangeabilities, Γ shape or CAT categories; branch lengths linked).
func ParsePartitionedAlignment(alignData, partitionData []byte) (*Patterns, error) {
	a, err := msa.Sniff(alignData)
	if err != nil {
		return nil, err
	}
	defs, err := msa.ParsePartitionFile(bytes.NewReader(partitionData))
	if err != nil {
		return nil, err
	}
	return msa.CompressPartitioned(a, defs)
}

// LoadPartitionedAlignment reads and compresses an alignment file with
// its -q partition file.
func LoadPartitionedAlignment(alignPath, partitionPath string) (*Patterns, error) {
	alignData, err := os.ReadFile(alignPath)
	if err != nil {
		return nil, fmt.Errorf("raxml: %v", err)
	}
	partData, err := os.ReadFile(partitionPath)
	if err != nil {
		return nil, fmt.Errorf("raxml: %v", err)
	}
	return ParsePartitionedAlignment(alignData, partData)
}

// Comprehensive runs the paper's -f a pipeline: rapid bootstraps, fast
// and slow ML searches, one thorough search per rank, best-tree
// selection and support mapping. Options.Ranks == 1 is the serial
// algorithm.
func Comprehensive(pat *Patterns, opts Options) (*Result, error) {
	res, err := core.Run(pat, opts)
	if err != nil {
		return nil, err
	}
	return &Result{res}, nil
}

// Schedule exposes the Table-2 work-partitioning rules.
func Schedule(processes, bootstraps int) core.Schedule {
	return core.NewSchedule(processes, bootstraps)
}

// GenerateConfig configures synthetic data generation.
type GenerateConfig = seqgen.Config

// Generate synthesizes an alignment by GTR evolution along a random
// tree and returns it compressed, together with the true tree.
func Generate(cfg GenerateConfig) (*Patterns, *tree.Tree, error) {
	a, truth, err := seqgen.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	pat, err := msa.Compress(a)
	if err != nil {
		return nil, nil, err
	}
	return pat, truth, nil
}

// MultiSearch runs the paper's analysis type 1: `searches` independent
// maximum-likelihood searches from randomized starting trees distributed
// over Options.Ranks ranks (ceil(searches/ranks) each), returning every
// outcome and the global best.
func MultiSearch(pat *Patterns, searches int, opts Options) (*core.MultiSearchResult, error) {
	return core.RunMultiSearch(pat, searches, opts, nil)
}

// Bootstraps runs the paper's analysis type 2: Options.Bootstraps rapid
// bootstrap replicates distributed over the ranks, returning all
// replicate topologies.
func Bootstraps(pat *Patterns, opts Options) (*core.BootstrapResult, error) {
	return core.RunBootstraps(pat, opts)
}

// MajorityConsensus builds the majority-rule consensus (threshold 0.5)
// of a set of replicate trees.
func MajorityConsensus(trees []*tree.Tree) (*consensus.Tree, error) {
	return consensus.Majority(trees, 0.5)
}

// GreedyConsensus builds the greedy (MRE) consensus of a set of
// replicate trees.
func GreedyConsensus(trees []*tree.Tree) (*consensus.Tree, error) {
	return consensus.Greedy(trees)
}
