// Bootstopping: the paper's stated future work, working. Runs rapid
// bootstraps in rounds and stops when the WC-style convergence test says
// the support values are stable, instead of a fixed -N count. The loop is
// the one -grid-bootstop runs: a grid.Analysis whose bootstop/r job closes
// each round, here on a master-local grid (no worker fleet).
package main

import (
	"fmt"
	"log"

	"raxml"
	"raxml/internal/core"
	"raxml/internal/grid"
	"raxml/internal/tree"
)

func main() {
	// Strong-signal data converge quickly; noisy data need more
	// replicates. Compare both.
	for _, cfg := range []struct {
		label string
		gen   raxml.GenerateConfig
	}{
		{"strong signal", raxml.GenerateConfig{Taxa: 10, Chars: 2000, Seed: 1, TreeScale: 0.4, Alpha: 4}},
		{"weak signal", raxml.GenerateConfig{Taxa: 10, Chars: 120, Seed: 2, TreeScale: 0.1, Alpha: 0.4}},
	} {
		pat, _, err := raxml.Generate(cfg.gen)
		if err != nil {
			log.Fatal(err)
		}
		analysis := &grid.Analysis{
			Pat:           pat,
			Opts:          core.Options{SeedParsimony: 12345, SeedBootstrap: 12345},
			Replicates:    10,
			Bootstop:      true,
			MaxReplicates: 60,
		}
		g := grid.New(grid.Config{})
		res, err := analysis.Build(g)
		if err != nil {
			log.Fatal(err)
		}
		if err := g.Run(); err != nil {
			log.Fatal(err)
		}
		trees := make([]*tree.Tree, len(res.Replicates))
		for i, r := range res.Replicates {
			trees[i] = r.Tree
		}
		// The split tally the WC test, support values and the consensus
		// all count through.
		tally, err := tree.TallySplits(trees)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%s: %d replicates in %d rounds; converged=%v (WC distance %.4f)\n",
			cfg.label, len(trees), res.Rounds, res.Converged, res.WCDistance)
		fmt.Printf("  distinct bipartitions observed: %d\n", len(tally.Bips))
		fmt.Printf("  greedy consensus: %s\n\n", res.ConsensusNewick)
	}
	fmt.Println("the fixed -N runs of the paper would have used 100 replicates in every case;")
	fmt.Println("bootstopping adapts the count to the data, as Pattengale et al. proposed.")
}
