package likelihood

import (
	"math"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// BenchmarkInsertScan times the hottest loop of the search stages: one
// lazily scored insertion (EvaluateInsertion) on warm views — the
// subtree dangles, every candidate was scored once before the timer
// starts, so an op is the three-way join, the logarithms and the
// reduction over the 1288-pattern workload and nothing else.
func BenchmarkInsertScan(b *testing.B) {
	pat := bench1288Patterns(b)
	cases := []struct {
		name  string
		rates func() *gtr.RateCategories
	}{
		{"CAT", func() *gtr.RateCategories {
			r := rng.New(5)
			perSite := make([]float64, pat.NumPatterns())
			for i := range perSite {
				perSite[i] = 0.25 + 2*r.Float64()
			}
			return gtr.ClusterCAT(perSite, 25)
		}},
		{"GAMMA", func() *gtr.RateCategories {
			rc, err := gtr.NewGamma(0.8, 4)
			if err != nil {
				b.Fatal(err)
			}
			return rc
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			tr := tree.Random(pat.Names, rng.New(3))
			pool := threads.NewPool(1, pat.NumPatterns())
			defer pool.Close()
			e, err := New(pat, gtr.Default(), c.rates(), Config{Pool: pool})
			if err != nil {
				b.Fatal(err)
			}
			if err := e.AttachTree(tr); err != nil {
				b.Fatal(err)
			}
			var p *tree.PrunedSubtree
			for _, edge := range tr.Edges() {
				if !tr.Nodes[edge.B].IsTip() && !tr.Nodes[edge.A].IsTip() {
					if p, err = tr.DanglingPrune(edge.A, edge.B); err == nil {
						break
					}
				}
			}
			if p == nil {
				b.Fatal("no prunable subtree")
			}
			e.InvalidateAll()
			cands := tr.RegraftCandidates(p, 5)
			for _, cand := range cands {
				e.EvaluateInsertion(p.Root, p.Attach, cand.A, cand.B)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cand := cands[i%len(cands)]
				sinkLL = e.EvaluateInsertion(p.Root, p.Attach, cand.A, cand.B)
			}
		})
	}
}

var sinkLL float64

// BenchmarkLogBlock times the blocked logarithm of the bound kernel set
// over one full block, next to the per-value math.Log loop it replaced
// (the in-run reference: the ratio survives host drift).
func BenchmarkLogBlock(b *testing.B) {
	r := rng.New(9)
	var src, dst [logBlockLen]float64
	for i := range src {
		src[i] = math.Ldexp(0.5+r.Float64(), -r.Intn(600))
	}
	b.Run("mathLog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range src {
				dst[j] = math.Log(x)
			}
		}
	})
	kt := activeKernelTable()
	b.Run("logBlock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kt.logBlock(&dst, &src, logBlockLen)
		}
	})
	sinkLL = dst[0]
}
