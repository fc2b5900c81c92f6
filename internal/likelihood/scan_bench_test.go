package likelihood

import (
	"math"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// scanBenchCases are the rate treatments the insertion-scan benchmarks
// run under, on the 1288-pattern workload.
var scanBenchCases = []struct {
	name  string
	rates func(b *testing.B, patterns int) *gtr.RateCategories
}{
	{"CAT", func(b *testing.B, patterns int) *gtr.RateCategories {
		r := rng.New(5)
		perSite := make([]float64, patterns)
		for i := range perSite {
			perSite[i] = 0.25 + 2*r.Float64()
		}
		return clusterCAT(perSite, 25)
	}},
	{"GAMMA", func(b *testing.B, patterns int) *gtr.RateCategories {
		rc, err := gtr.NewGamma(0.8, 4)
		if err != nil {
			b.Fatal(err)
		}
		return rc
	}},
}

// scanBenchEngine builds a single-worker engine over the 1288-pattern
// workload with a subtree dangling — the first one with at least
// minCands regraft candidates within radius — and every candidate scored
// once, so all their views are warm.
func scanBenchEngine(b *testing.B, rates *gtr.RateCategories, radius, minCands int) (*Engine, *tree.PrunedSubtree, []tree.Edge) {
	pat := bench1288Patterns(b)
	tr := tree.Random(pat.Names, rng.New(3))
	pool := threads.NewPool(1, pat.NumPatterns())
	b.Cleanup(pool.Close)
	e, err := New(pat, gtr.Default(), rates, Config{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.AttachTree(tr); err != nil {
		b.Fatal(err)
	}
	for _, edge := range tr.Edges() {
		if tr.Nodes[edge.B].IsTip() || tr.Nodes[edge.A].IsTip() {
			continue
		}
		p, err := tr.DanglingPrune(edge.A, edge.B)
		if err != nil {
			continue
		}
		cands := tr.AppendRegraftCandidates(nil, p, radius)
		if len(cands) < minCands {
			tr.PlugBack(p)
			continue
		}
		e.InvalidateAll()
		e.EvaluateInsertions(p.Root, p.Attach, cands, nil)
		return e, p, cands
	}
	b.Fatalf("no subtree with %d regraft candidates", minCands)
	return nil, nil, nil
}

// BenchmarkInsertScan times one lazily scored insertion through the
// one-candidate wrapper (EvaluateInsertion) on warm views — the subtree
// dangles, every candidate was scored once before the timer starts, so
// an op is the three-way join, the logarithms and the reduction over the
// 1288-pattern workload, plus the whole per-dispatch overhead of a scan
// (descriptor plan, matrix fill, post) paid for a single candidate.
func BenchmarkInsertScan(b *testing.B) {
	for _, c := range scanBenchCases {
		b.Run(c.name, func(b *testing.B) {
			e, p, cands := scanBenchEngine(b, c.rates(b, 1288), 5, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cand := cands[i%len(cands)]
				sinkLL = e.EvaluateInsertion(p.Root, p.Attach, cand.A, cand.B)
			}
		})
	}
}

// BenchmarkInsertScanBatch times the search's own call shape: 16
// candidates of one prune scored by one EvaluateInsertions call on warm
// views — one dispatch per op. ns/candidate is the figure to hold
// against BenchmarkInsertScan's ns/op: the kernel work is the same, the
// per-dispatch overhead is shared by 16.
func BenchmarkInsertScanBatch(b *testing.B) {
	const batch = 16
	for _, c := range scanBenchCases {
		b.Run(c.name, func(b *testing.B) {
			e, p, cands := scanBenchEngine(b, c.rates(b, 1288), 1<<20, batch)
			cands = cands[:batch]
			out := make([]float64, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = e.EvaluateInsertions(p.Root, p.Attach, cands, out)
			}
			b.StopTimer()
			sinkLL = out[0]
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/candidate")
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
