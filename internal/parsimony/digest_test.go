package parsimony

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// stepwiseDigests pins StepwiseAddition's trees — Newick with branch
// lengths, plus every node's id, neighbour slots and length bits, so a
// renumbered internal node or a swapped slot shows even where the Newick
// would not — for three insertion orders per case. The values were
// recorded with the per-candidate insert/Score/remove loop, before
// insertion scores came from directed Fitch views; every worker count
// must reproduce them.
var stepwiseDigests = map[string]string{
	"12x90/original":   "fd239e1a3a2d5eb6",
	"12x90/resampled":  "68930080038d7ed8",
	"20x160/original":  "04663dd618bfc7f1",
	"20x160/resampled": "ab895fdcad476ed2",
	"50x300/original":  "b81ac1d8ddfe1d81",
	"50x300/resampled": "4f3ad9f8e9c329d4",
}

func TestStepwiseAdditionDigests(t *testing.T) {
	for _, c := range []struct{ taxa, chars int }{{12, 90}, {20, 160}, {50, 300}} {
		pat := ambiguousPatterns(t, rng.New(int64(c.taxa)), c.taxa, c.chars)
		for _, weights := range []string{"original", "resampled"} {
			name := fmt.Sprintf("%dx%d/%s", c.taxa, c.chars, weights)
			want := stepwiseDigests[name]
			for _, workers := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/T%d", name, workers), func(t *testing.T) {
					pool := threads.NewPool(workers, pat.NumPatterns())
					defer pool.Close()
					e := New(pat, pool)
					if weights == "resampled" {
						e.SetWeights(pat.Resample(rng.New(int64(c.chars))))
					}
					h := sha256.New()
					for seed := int64(1); seed <= 3; seed++ {
						tr := e.StepwiseAddition(rng.New(seed))
						nw, err := tree.FormatNewick(tr, nil)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintln(h, nw)
						for _, n := range tr.Nodes {
							fmt.Fprintln(h, n.ID, n.InUse, n.Neighbors,
								math.Float64bits(n.Lengths[0]), math.Float64bits(n.Lengths[1]), math.Float64bits(n.Lengths[2]))
						}
					}
					if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want {
						t.Errorf("%s: stepwise digest %s, recorded %s", name, got, want)
					}
				})
			}
		}
	}
}

// ambiguousPatterns draws a random alignment whose characters are
// mostly unambiguous nucleotides, with IUPAC ambiguity codes and gaps
// mixed in, so Fitch sets of every size occur at the tips.
func ambiguousPatterns(t *testing.T, r *rng.RNG, nTaxa, nChars int) *msa.Patterns {
	t.Helper()
	const plain, rare = "ACGT", "RYKMSWBDHVN-"
	a := &msa.Alignment{}
	for i := 0; i < nTaxa; i++ {
		a.Names = append(a.Names, fmt.Sprintf("s%02d", i))
		row := make([]msa.State, nChars)
		for j := range row {
			if r.Intn(10) == 0 {
				row[j] = msa.EncodeChar(rare[r.Intn(len(rare))])
			} else {
				row[j] = msa.EncodeChar(plain[r.Intn(len(plain))])
			}
		}
		a.Seqs = append(a.Seqs, row)
	}
	p, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
