package core

import (
	"runtime"
	"testing"

	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/seqgen"
)

// TestAnalysisAllocationChurn bounds what a whole comprehensive analysis
// allocates by the footprint of the engine it runs on. A GAMMA analysis
// with two workers and four bootstraps over the benchmark's wide input
// shape (20 taxa × 3000 sites, 790 patterns) reserves its CLV arenas and
// tip vectors once, in likelihood.New, and re-slices them for every
// replicate and search after that. Everything else it allocates —
// replicate weights, start trees, tree clones, descriptors and the
// bookkeeping of four stages — is a fixed slack: 1.3 MB measured, so the
// analysis allocates 7.2 MB over a 5.9 MB footprint. An engine that grows
// its arena by appending copies it out at every capacity step: the same
// analysis then allocated 30.3 MB, 5.1 times the footprint.
func TestAnalysisAllocationChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("a full analysis")
	}
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 20, Chars: 3000, Seed: 1, TreeScale: 0.5, Alpha: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	footprint := likelihood.EstimateMemoryBytesPartitioned(pat.NumTaxa(), []int{pat.NumPatterns()}, 4)
	const slack = 2 << 20

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := Run(pat, Options{
		Bootstraps: 4, Workers: 2, Model: GTRGAMMA,
		SeedParsimony: 11, SeedBootstrap: 22, EmpiricalFreqs: true,
	}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	churn := int64(m1.TotalAlloc - m0.TotalAlloc)
	t.Logf("allocated %.1f MB over a %.1f MB engine footprint", float64(churn)/(1<<20), float64(footprint)/(1<<20))
	if churn > footprint+slack {
		t.Fatalf("the analysis allocated %.1f MB, more than its engine's %.1f MB footprint and %.0f MB of slack",
			float64(churn)/(1<<20), float64(footprint)/(1<<20), float64(slack)/(1<<20))
	}
}
