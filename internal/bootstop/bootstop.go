// Package bootstop implements the convergence test of bootstopping: the
// adaptive criterion of Pattengale et al. (RECOMB 2009) that decides when
// enough bootstrap replicates have been computed.
//
// The paper's hybrid code handles only a fixed replicate count and names
// bootstopping as future work. Here the adaptive loop is the grid
// scheduler's: each round of bootstrap batches ends in a bootstop/r job
// that calls Converged on every replicate so far and either adds the next
// round or the consensus join (grid.Analysis with Bootstop set, the
// -grid-bootstop option). The test counts splits through the one split
// tally of the replicate set (tree.TallySplits) and sums in split-id
// order, so its distance is a pure function of its inputs.
package bootstop

import (
	"math"

	"raxml/internal/rng"
	"raxml/internal/tree"
)

// Criterion configures the WC-style convergence test.
type Criterion struct {
	// Permutations is the number of random half/half splits examined
	// (Pattengale et al. use 100).
	Permutations int
	// Threshold is the convergence bound on the mean weighted distance
	// between half-sample support vectors (default 0.03).
	Threshold float64
}

// DefaultCriterion returns the parameters of the published WC test.
func DefaultCriterion() Criterion {
	return Criterion{Permutations: 100, Threshold: 0.03}
}

// Converged applies the WC-style test to a set of replicate trees: for
// each random permutation the replicates are split into two halves, each
// half's bipartition support vector is computed, and the halves are
// compared by mean absolute support difference over the union of their
// splits. The test passes when the permutation average falls below the
// threshold — the replicate set then carries stable support information.
// It returns the verdict and the average distance.
func Converged(trees []*tree.Tree, c Criterion, r *rng.RNG) (bool, float64, error) {
	if len(trees) < 2 {
		return false, 1, nil
	}
	if c.Permutations < 1 {
		c.Permutations = 100
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.03
	}
	tally, err := tree.TallySplits(trees)
	if err != nil {
		return false, 1, err
	}
	// Every split of the tally is in one half or the other, so the union
	// of the halves' splits is the whole tally and the second half's count
	// is the total minus the first's.
	half := len(trees) / 2
	n1, n2 := float64(half), float64(len(trees)-half)
	first := make([]int, len(tally.Counts))
	totalDist := 0.0
	for p := 0; p < c.Permutations; p++ {
		clear(first)
		for _, idx := range r.Perm(len(trees))[:half] {
			for _, id := range tally.Trees[idx] {
				first[id]++
			}
		}
		// Weighted RF between the half-sample support vectors,
		// normalized by the total support mass so well-supported stable
		// splits dominate the verdict (as in the published WC test).
		var num, den float64
		for id, all := range tally.Counts {
			f1 := float64(first[id]) / n1
			f2 := float64(all-first[id]) / n2
			num += math.Abs(f1 - f2)
			den += math.Max(f1, f2)
		}
		if den > 0 {
			totalDist += num / den
		}
	}
	avg := totalDist / float64(c.Permutations)
	return avg <= c.Threshold, avg, nil
}
