package finegrain

import (
	"fmt"
	"runtime"
	"testing"

	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/seqgen"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// unevenGenes synthesizes a three-gene pattern set whose genes differ in
// length — a long gene, a short one and a middling one, columns [0, 1200),
// [1200, 1320) and [1320, 1700) — so that the rank stripes of R = 2, 3, 4
// fall on it in every way a stripe can meet a gene (rankGeometry).
func unevenGenes(t testing.TB) *msa.Patterns {
	t.Helper()
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 12, Chars: 1700, Seed: 23, TreeScale: 0.5, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	var defs []msa.PartitionDef
	for i, span := range [][2]int{{0, 1200}, {1200, 1320}, {1320, 1700}} {
		defs = append(defs, msa.PartitionDef{
			ModelName: "DNA",
			Name:      "gene" + string(rune('A'+i)),
			Ranges:    []msa.SiteRange{{Lo: span[0], Hi: span[1], Stride: 1}},
		})
	}
	pat, err := msa.CompressPartitioned(a, defs)
	if err != nil {
		t.Fatal(err)
	}
	return pat
}

// rankGeometry says how the remote stripes meet the genes: some remote
// rank holds a whole gene, some remote stripe edge falls strictly inside
// a gene (the gene is clipped), and some remote rank's stripe lies
// strictly inside one gene, holding none whole.
type rankGeometry struct{ whole, clipped, inside bool }

func (g *rankGeometry) add(stripes []threads.Range, parts []msa.PartRange) {
	for _, s := range stripes[1:] {
		for _, p := range parts {
			if s.Lo <= p.Lo && p.Hi <= s.Hi {
				g.whole = true
			}
			if p.Lo < s.Lo && s.Lo < p.Hi || p.Lo < s.Hi && s.Hi < p.Hi {
				g.clipped = true
			}
			if p.Lo < s.Lo && s.Hi < p.Hi {
				g.inside = true
			}
		}
	}
}

// workerPartialBits are the digests of workerPartialProgram over
// unevenGenes on every grid below, recorded before worker engines were
// built over the master's whole partition set: a worker's thread cut and
// the order its partial sums its patterns in are all a grid can change
// about these bits, so they hold the cut in place. The T=2 rows were
// recorded again when thread crews stopped cutting by site weight and
// began cutting by pattern count, as rank stripes do; the T=1 rows did
// not move. Every kernel on the
// path is pinned bit-identical across the scalar and AVX2 sets; the
// table is compared on amd64 only, where it was recorded.
var workerPartialBits = map[string]uint64{
	"CAT/R=2/T=1":   0x4b2111e23cc6aea2,
	"CAT/R=2/T=2":   0x4ed1f8c2fa0f4427,
	"CAT/R=3/T=1":   0x2cafd67799f8bb52,
	"CAT/R=3/T=2":   0x9a24dd148e77de17,
	"CAT/R=4/T=1":   0x6bd1b311734b9acd,
	"CAT/R=4/T=2":   0xa98b1aa68b26c2bd,
	"GAMMA/R=2/T=1": 0xe3fdfa142b7fd0c1,
	"GAMMA/R=2/T=2": 0x50a6fbb6093a5054,
	"GAMMA/R=3/T=1": 0x72643192fa42cb94,
	"GAMMA/R=3/T=2": 0x3d1230531f8e90e7,
	"GAMMA/R=4/T=1": 0x7f9e147069ece09d,
	"GAMMA/R=4/T=2": 0xae2a2b33a21e382d,
}

// workerPartialProgram runs, on a copy of topo, everything a remote
// rank's partial feeds — an evaluation, its per-partition components, a
// branch sweep (every Newton derivative a distributed sum), the site
// log-likelihoods and one batched insertion scan — and returns the
// results in that order.
func workerPartialProgram(t *testing.T, eng *likelihood.Engine, topo *tree.Tree) []float64 {
	tr := topo.Clone()
	if err := eng.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	out := append([]float64{eng.LogLikelihood()}, eng.PartitionLogLikelihoods(nil)...)
	out = append(out, eng.OptimizeAllBranches(1, 1e-3))
	out = append(out, eng.SiteLogLikelihoods(nil)...)
	p, cands := pruneForScan(t, tr, 1<<20)
	eng.InvalidateEdge(p.OrigA, p.OrigB)
	eng.InvalidateNode(p.Attach)
	out = append(out, eng.EvaluateInsertions(p.Root, p.Attach, cands, nil)...)
	tr.PlugBack(p)
	return out
}

// TestWorkerPartialBits pins the bits of every result a remote rank's
// partial reaches, at R ∈ {2, 3, 4} × T ∈ {1, 2}, CAT and GAMMA, on a
// three-gene alignment whose stripes hold a whole gene on one rank, clip
// a gene at a stripe edge and lie inside one gene on another. Derivatives
// are forced to stay distributed, so the branch sweep reduces rank
// partials too. Only a moved thread cut or a re-associated partial can
// change a digest; the output files of -fine runs, which every R×T shape
// shares, would not show either.
func TestWorkerPartialBits(t *testing.T) {
	pat := unevenGenes(t)
	topo := tree.Random(pat.Names, rng.New(41))
	var geom rankGeometry
	for _, cat := range []bool{true, false} {
		treatment := map[bool]string{true: "CAT", false: "GAMMA"}[cat]
		for _, ranks := range []int{2, 3, 4} {
			for _, threadsPerRank := range []int{1, 2} {
				name := fmt.Sprintf("%s/R=%d/T=%d", treatment, ranks, threadsPerRank)
				t.Run(name, func(t *testing.T) {
					forceGather(t, false)
					err := Run(ranks, threadsPerRank, pat, makeSet(t, pat, cat), func(eng *likelihood.Engine, pool *Pool) error {
						geom.add(pool.Stripes(), pat.PartRanges())
						got := digest(workerPartialProgram(t, eng, topo)...)
						if want := workerPartialBits[name]; runtime.GOARCH == "amd64" && got != want {
							t.Errorf("digest %#016x, the recorded one is %#016x", got, want)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	if !geom.whole || !geom.clipped || !geom.inside {
		t.Fatalf("the remote stripes do not meet the genes in every way (%+v)", geom)
	}
}
