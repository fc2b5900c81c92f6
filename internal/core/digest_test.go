package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"testing"

	"raxml/internal/msa"
	"raxml/internal/seqgen"
	"raxml/internal/tree"
)

// TestCoarseRankDigests pins the output bits of the three -R drivers at
// R > 1: every tree the CLI would write, every score's bits, the winner
// rank and the exact work counts, hashed per case. The digests were
// recorded before the drivers ran their ranks as plain goroutines with
// the collectives folded after the join; a change in how ranks are
// started, joined or reduced must not move any of them.
func TestCoarseRankDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("28 small analyses")
	}
	single := testPatterns(t, 10, 240, 51)
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 10, Chars: 300, Seed: 53, TreeScale: 0.5, Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	genes, err := msa.CompressPartitioned(a, []msa.PartitionDef{
		{ModelName: "DNA", Name: "gene0", Ranges: []msa.SiteRange{{Lo: 0, Hi: 90, Stride: 1}}},
		{ModelName: "DNA", Name: "gene1", Ranges: []msa.SiteRange{{Lo: 90, Hi: 200, Stride: 1}}},
		{ModelName: "DNA", Name: "gene2", Ranges: []msa.SiteRange{{Lo: 200, Hi: 300, Stride: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"run/1part/GTRCAT/global=false/R=1":   "ebde7874c6ff6bc8",
		"run/1part/GTRCAT/global=false/R=2":   "3f231cdbd15a820a",
		"run/1part/GTRCAT/global=false/R=3":   "0a97a89e34c4c1e6",
		"run/1part/GTRCAT/global=true/R=1":    "43b15186b16a5c5b",
		"run/1part/GTRCAT/global=true/R=2":    "b425000e232f9c10",
		"run/1part/GTRCAT/global=true/R=3":    "6a24338e2580cd97",
		"run/1part/GTRGAMMA/global=false/R=1": "3d4c783a35c82461",
		"run/1part/GTRGAMMA/global=false/R=2": "d870727cebc2b68a",
		"run/1part/GTRGAMMA/global=false/R=3": "77b07b5e3c11738b",
		"run/1part/GTRGAMMA/global=true/R=1":  "4126d936ff8af79e",
		"run/1part/GTRGAMMA/global=true/R=2":  "c2445394111750c4",
		"run/1part/GTRGAMMA/global=true/R=3":  "479c0c94df90ed0a",
		"run/3part/GTRCAT/global=false/R=1":   "3fd2daeb4ff3a9c8",
		"run/3part/GTRCAT/global=false/R=2":   "c38f53f47fef782c",
		"run/3part/GTRCAT/global=false/R=3":   "2e91d5cd0ec7a6db",
		"run/3part/GTRCAT/global=true/R=1":    "6b9b7c416c994270",
		"run/3part/GTRCAT/global=true/R=2":    "94a74b851428ebbe",
		"run/3part/GTRCAT/global=true/R=3":    "126a602015e8d867",
		"run/3part/GTRGAMMA/global=false/R=1": "c325d644abdc4ff9",
		"run/3part/GTRGAMMA/global=false/R=2": "176e192d6441a0bf",
		"run/3part/GTRGAMMA/global=false/R=3": "d65e42195b6f2b7f",
		"run/3part/GTRGAMMA/global=true/R=1":  "7683b7e4b4a3ddb8",
		"run/3part/GTRGAMMA/global=true/R=2":  "bbb779401bc5fbda",
		"run/3part/GTRGAMMA/global=true/R=3":  "1ccd2362b471af81",
		"multisearch/R=1":                     "369b83277c98465c",
		"multisearch/R=3":                     "0a1b57b6b4f259c9",
		"bootstraps/R=2":                      "4ac9094dac1918dd",
		"bootstraps/R=3":                      "6d4daf20db053f27",
	}

	for _, data := range []struct {
		name string
		pat  *msa.Patterns
	}{{"1part", single}, {"3part", genes}} {
		for _, model := range []ModelType{GTRCAT, GTRGAMMA} {
			for _, global := range []bool{false, true} {
				for _, ranks := range []int{1, 2, 3} {
					name := fmt.Sprintf("run/%s/%s/global=%v/R=%d", data.name, model, global, ranks)
					opts := quickOpts(ranks, 1, 12)
					opts.Model = model
					opts.GlobalFastSort = global
					res, err := Run(data.pat, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					h := sha256.New()
					writeNewick(t, h, res.BestTree, nil)
					writeNewick(t, h, res.BestTree, res.Support)
					fmt.Fprintf(h, "%x %d %d\n", math.Float64bits(res.BestLogLikelihood), res.BestRank, res.TotalBootstraps)
					for _, rep := range res.Ranks {
						fmt.Fprintf(h, "rank %d fast", rep.Rank)
						for _, s := range rep.FastScores {
							fmt.Fprintf(h, " %x", math.Float64bits(s))
						}
						fmt.Fprint(h, " slow")
						for _, s := range rep.SlowScores {
							fmt.Fprintf(h, " %x", math.Float64bits(s))
						}
						fmt.Fprintf(h, " thorough %x dispatches %d patterns %d\n",
							math.Float64bits(rep.ThoroughScore), rep.Dispatches, rep.BootstrapPatterns)
					}
					checkDigest(t, name, h, want)
				}
			}
		}
	}

	for _, ranks := range []int{1, 3} {
		name := fmt.Sprintf("multisearch/R=%d", ranks)
		res, err := RunMultiSearch(single, 4, quickOpts(ranks, 1, 4), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		for _, o := range append(res.All, res.Best) {
			fmt.Fprintf(h, "%d %d %x %s\n", o.Rank, o.Index, math.Float64bits(o.LogLikelihood), o.Newick)
		}
		writeNewick(t, h, res.BestTree, nil)
		checkDigest(t, name, h, want)
	}

	for _, ranks := range []int{2, 3} {
		name := fmt.Sprintf("bootstraps/R=%d", ranks)
		res, err := RunBootstraps(genes, quickOpts(ranks, 1, 7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%d %d\n", res.PerRank, len(res.Trees))
		for _, tr := range res.Trees {
			writeNewick(t, h, tr, nil)
		}
		checkDigest(t, name, h, want)
	}
}

func writeNewick(t *testing.T, h hash.Hash, tr *tree.Tree, support map[tree.Edge]int) {
	t.Helper()
	nw, err := tree.FormatNewick(tr, support)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(h, nw)
}

func checkDigest(t *testing.T, name string, h hash.Hash, want map[string]string) {
	t.Helper()
	if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != want[name] {
		t.Errorf("%s: digest %s, recorded %s", name, got, want[name])
	}
}
