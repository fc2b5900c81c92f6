package grid

import (
	"strings"
	"testing"

	"raxml/internal/core"
	"raxml/internal/msa"
	"raxml/internal/seqgen"
)

// bootstopAnalysis is an adaptive replicate-only workload: rounds of 10
// replicates in batches of 5, at most max in all.
func bootstopAnalysis(t *testing.T, cfg seqgen.Config, max int) *Analysis {
	t.Helper()
	a, _, err := seqgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	return &Analysis{
		Pat:           pat,
		Opts:          core.Options{SeedParsimony: 12345, SeedBootstrap: 12345, Workers: 1},
		Replicates:    10,
		Batch:         5,
		Bootstop:      true,
		MaxReplicates: max,
	}
}

// TestBootstopRoundsStopAtConvergence: on strong-signal data the WC test
// passes before the cap, and the DAG adds no round after the one that
// converged.
func TestBootstopRoundsStopAtConvergence(t *testing.T) {
	a := bootstopAnalysis(t, seqgen.Config{Taxa: 10, Chars: 2000, Seed: 1, TreeScale: 0.4, Alpha: 4}, 60)
	res, trace := runAnalysis(t, a, 0, Config{})
	if !res.Converged {
		t.Fatalf("strong signal did not converge in %d rounds (WC %g)", res.Rounds, res.WCDistance)
	}
	if len(res.Replicates) != 10*res.Rounds || len(res.Replicates) >= 60 {
		t.Fatalf("%d replicates in %d rounds, want 10 per round and fewer than the cap of 60", len(res.Replicates), res.Rounds)
	}
	if n := strings.Count(trace, `"ev":"bootstop"`); n != res.Rounds {
		t.Fatalf("trace has %d bootstop events, want one per round (%d)", n, res.Rounds)
	}
}

// TestBootstopRoundsHitCap: on weak-signal data the rounds run until
// MaxReplicates, the last one cut to fit.
func TestBootstopRoundsHitCap(t *testing.T) {
	a := bootstopAnalysis(t, seqgen.Config{Taxa: 10, Chars: 120, Seed: 2, TreeScale: 0.1, Alpha: 0.4}, 25)
	res, _ := runAnalysis(t, a, 0, Config{})
	if res.Converged {
		t.Fatalf("weak signal converged (WC %g)", res.WCDistance)
	}
	if len(res.Replicates) != 25 || res.Rounds != 3 {
		t.Fatalf("%d replicates in %d rounds, want the cap of 25 in 3 rounds", len(res.Replicates), res.Rounds)
	}
	if res.ConsensusNewick == "" {
		t.Fatal("no consensus after the last round")
	}
}
