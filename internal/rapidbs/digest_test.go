package rapidbs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"raxml/internal/finegrain"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/seqgen"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// replicateDigests pins the bits of short replicate streams — topology,
// every branch length and the final log-likelihood of each replicate —
// across the decompositions a stream can run on: thread crews of 1–3,
// both rate treatments, a 3-partition alignment, and distributed pools
// that gather the sumtable and that leave it on the ranks. The digests
// were recorded from an engine that visited every pattern, zero-weight
// ones included; an engine that visits only a replicate's live patterns
// must reproduce them bit for bit. A k-thread crew is cut by the rule
// k rank stripes are cut by, so each k-thread row holds the digest of
// the k-rank × 1-thread run (TestCrewMatchesRankStripes).
var replicateDigests = map[string]string{
	"cat/T1":                  "cedd19567ccee0d2",
	"cat/T2":                  "c8dd1f0ea7fe9755",
	"cat/T3":                  "745fed8a0806b0f7",
	"gamma/T2":                "af4c095bdad5f0ae",
	"cat/3parts/T2":           "3282b114ca7e4776",
	"gamma/3parts/T3":         "947b3b5490676995",
	"cat/R2xT2/gather":        "54263308ca39e22a",
	"gamma/3parts/R3xT1/core": "947b3b5490676995",
}

func TestReplicateStreamDigests(t *testing.T) {
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 14, Chars: 480, Seed: 21, TreeScale: 0.5, Alpha: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	single, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	parted, err := msa.CompressPartitioned(a, msa.ContiguousPartitions(a.NumChars(), 3))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range replicateDigests {
		t.Run(name, func(t *testing.T) {
			var got string
			switch name {
			case "cat/T1", "cat/T2", "cat/T3", "gamma/T2":
				got = localDigest(t, single, name[:3] == "cat", int(name[len(name)-1]-'0'))
			case "cat/3parts/T2":
				got = localDigest(t, parted, true, 2)
			case "gamma/3parts/T3":
				got = localDigest(t, parted, false, 3)
			case "cat/R2xT2/gather":
				got = fineDigest(t, single, true, 2, 2, math.MaxInt)
			case "gamma/3parts/R3xT1/core":
				got = fineDigest(t, parted, false, 3, 1, 0)
			}
			if got != want {
				t.Errorf("%q: replicate stream digest %s, recorded %s", name, got, want)
			}
		})
	}
}

// TestCrewMatchesRankStripes: a k-thread crew and k ranks of one thread
// each, sumtable left on the ranks, cut the pattern axis by one rule —
// an even cut by pattern count snapped to the stripe quantum at the
// partition starts — so a replicate stream runs bit-identical on both
// shapes, for both rate treatments, one and three partitions.
func TestCrewMatchesRankStripes(t *testing.T) {
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 14, Chars: 480, Seed: 21, TreeScale: 0.5, Alpha: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	single, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	parted, err := msa.CompressPartitioned(a, msa.ContiguousPartitions(a.NumChars(), 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []bool{true, false} {
		for _, pat := range []*msa.Patterns{single, parted} {
			for _, k := range []int{2, 3} {
				name := fmt.Sprintf("%s/%dparts/k=%d", map[bool]string{true: "cat", false: "gamma"}[cat], pat.NumParts(), k)
				t.Run(name, func(t *testing.T) {
					crew, ranks := localDigest(t, pat, cat, k), fineDigest(t, pat, cat, k, 1, 0)
					if crew != ranks {
						t.Errorf("a %d-thread crew streams %s, %d ranks × 1 thread stream %s", k, crew, k, ranks)
					}
				})
			}
		}
	}
}

// replicateSet returns one model and treatment per partition of pat: a
// distinct GTR model each, CAT with a heterogeneous assignment, or GAMMA.
func replicateSet(t *testing.T, pat *msa.Patterns, cat bool) *gtr.PartitionSet {
	t.Helper()
	set := gtr.NewPartitionSet(pat.NumParts())
	for i, pr := range pat.PartRanges() {
		if err := set.Models[i].SetRates([6]float64{1.2 + 0.3*float64(i), 3.1, 0.8, 1.1, 4.2, 1}); err != nil {
			t.Fatal(err)
		}
		if cat {
			assign := make([]int, pr.Len())
			for k := range assign {
				assign[k] = (k*7 + i) % 3
			}
			set.Rates[i] = &gtr.RateCategories{Rates: []float64{0.3, 1, 2.4}, PatternCategory: assign}
			continue
		}
		g, err := gtr.NewGamma(0.6+0.2*float64(i), 4)
		if err != nil {
			t.Fatal(err)
		}
		set.Rates[i] = g
	}
	return set
}

// localDigest runs the stream on a thread crew of the given size.
func localDigest(t *testing.T, pat *msa.Patterns, cat bool, workers int) string {
	t.Helper()
	pool := threads.NewPool(workers, pat.NumPatterns())
	defer pool.Close()
	eng, err := likelihood.NewPartitioned(pat, replicateSet(t, pat, cat), likelihood.Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return streamDigest(t, eng)
}

// fineDigest runs the stream on an in-process ranks×workers distributed
// pool whose sumtable gather limit is gatherLimit.
func fineDigest(t *testing.T, pat *msa.Patterns, cat bool, ranks, workers, gatherLimit int) string {
	t.Helper()
	old := finegrain.SumtableGatherLimit
	finegrain.SumtableGatherLimit = gatherLimit
	defer func() { finegrain.SumtableGatherLimit = old }()
	var got string
	err := finegrain.Run(ranks, workers, pat, replicateSet(t, pat, cat), func(eng *likelihood.Engine, _ *finegrain.Pool) error {
		got = streamDigest(t, eng)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// streamDigest runs four replicates and hashes each one's Newick
// topology, the bits of every branch length and of its log-likelihood.
func streamDigest(t *testing.T, eng *likelihood.Engine) string {
	t.Helper()
	reps, err := NewRunner(eng).Run(4, rng.New(31), rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, rep := range reps {
		nw, err := tree.FormatNewick(rep.Tree, nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %x\n", nw, math.Float64bits(rep.LogLikelihood))
		for _, e := range rep.Tree.Edges() {
			fmt.Fprintf(h, "%x ", math.Float64bits(rep.Tree.EdgeLength(e.A, e.B)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
