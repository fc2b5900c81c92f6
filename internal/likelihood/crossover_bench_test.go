package likelihood

import (
	"math"
	"testing"
	"time"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/seqgen"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// crossoverPool is the 2-worker pool of BenchmarkKernelCrossover. Post
// hands the first job of the armed code, as the engine posts it, to the
// benchmark to time, then runs it as usual.
type crossoverPool struct {
	*threads.Pool
	armed threads.JobCode
	timed func(r threads.JobRunner, code threads.JobCode)
}

func (c *crossoverPool) Post(r threads.JobRunner, code threads.JobCode) {
	if f := c.timed; f != nil && code == c.armed {
		c.timed = nil
		f(r, code)
	}
	c.Pool.Post(r, code)
}

// shared states more work than any crew declines, so the pool publishes
// every job and its gain keeps the spin bank full.
type shared struct{ threads.JobRunner }

func (shared) JobWork(threads.JobCode) int { return math.MaxInt32 }

// crossoverShapes are the two inputs of the repository benchmark's -T
// workloads, mkdata's defaults at the input's dimensions: `wide` (790
// patterns) under both rate treatments and `narrow` (201) under CAT.
var crossoverShapes = []struct {
	name        string
	taxa, chars int
	gamma       bool
}{
	{"wide/CAT", 20, 3000, false},
	{"wide/GAMMA", 20, 3000, true},
	{"narrow/CAT", 50, 300, false},
}

// crossoverEngine builds an engine of one shape over a crossoverPool, on
// a random tree with every view fresh.
func crossoverEngine(b testing.TB, taxa, chars int, gamma bool) (*Engine, *crossoverPool, *tree.Tree) {
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: taxa, Chars: chars, Seed: 1, TreeScale: 0.5, Alpha: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		b.Fatal(err)
	}
	rates, err := gtr.NewGamma(0.8, 4)
	if err != nil {
		b.Fatal(err)
	}
	if !gamma {
		r := rng.New(5)
		perSite := make([]float64, pat.NumPatterns())
		for i := range perSite {
			perSite[i] = 0.25 + 2*r.Float64()
		}
		rates = clusterCAT(perSite, 25)
	}
	pool := &crossoverPool{Pool: threads.NewPool(2, pat.NumPatterns())}
	b.Cleanup(pool.Close)
	e, err := New(pat, gtr.Default(), rates, Config{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	tr := tree.Random(pat.Names, rng.New(3))
	if err := e.AttachTree(tr); err != nil {
		b.Fatal(err)
	}
	e.LogLikelihood()
	return e, pool, tr
}

// twoEntryView returns a directed view whose refresh, with every view
// stale, is a walk of two descriptor entries: an inner node over a tip
// and a cherry.
func twoEntryView(b testing.TB, e *Engine, tr *tree.Tree) [2]int {
	for x := range tr.Nodes {
		for s := range tr.Nodes[x].Neighbors {
			e.InvalidateAll()
			e.beginTraversal()
			e.queueTraversal(x, s)
			if len(e.trav) == 2 {
				e.InvalidateAll()
				return [2]int{x, s}
			}
		}
	}
	b.Fatal("no view with a two-entry walk")
	return [2]int{}
}

// crossoverJobs are the engine calls whose posts BenchmarkKernelCrossover
// times: each readies the engine (not timed) and returns the code of the
// job to time and the call that posts it.
var crossoverJobs = []struct {
	name  string
	ready func(b testing.TB, e *Engine, tr *tree.Tree) (threads.JobCode, func())
}{
	{"newview", func(b testing.TB, e *Engine, tr *tree.Tree) (threads.JobCode, func()) {
		v := twoEntryView(b, e, tr)
		return threads.JobNewview, func() { e.refreshViews(v) }
	}},
	{"evaluate", func(b testing.TB, e *Engine, tr *tree.Tree) (threads.JobCode, func()) {
		return threads.JobEvaluate, func() { e.LogLikelihood() }
	}},
	{"makenewz_setup", func(b testing.TB, e *Engine, tr *tree.Tree) (threads.JobCode, func()) {
		a, nb := 0, tr.Nodes[0].Neighbors[0]
		return threads.JobMakenewzSetup, func() { e.makenewzSetup(a, e.slotOf(a, nb), nb, e.slotOf(nb, a), 0.1) }
	}},
	{"makenewz_core", func(b testing.TB, e *Engine, tr *tree.Tree) (threads.JobCode, func()) {
		a, nb := 0, tr.Nodes[0].Neighbors[0]
		e.makenewzSetup(a, e.slotOf(a, nb), nb, e.slotOf(nb, a), 0.1)
		return threads.JobMakenewzCore, func() { e.makenewzCore(0.1) }
	}},
	{"relikelihood", func(b testing.TB, e *Engine, tr *tree.Tree) (threads.JobCode, func()) {
		return threads.JobEvaluate, func() { e.InvalidateAll(); e.LogLikelihood() }
	}},
	{"site_ll", func(b testing.TB, e *Engine, tr *tree.Tree) (threads.JobCode, func()) {
		dst := make([]float64, e.nPatterns)
		e.SiteLogLikelihoods(dst)
		return threads.JobSiteLL, func() { e.SiteLogLikelihoods(dst) }
	}},
	{"makenewz_legacy", func(b testing.TB, e *Engine, tr *tree.Tree) (threads.JobCode, func()) {
		a, nb := 0, tr.Nodes[0].Neighbors[0]
		sa, sb := e.slotOf(a, nb), e.slotOf(nb, a)
		e.refreshViews([2]int{a, sa}, [2]int{nb, sb})
		return threads.JobMakenewz, func() { e.branchDerivatives(a, sa, nb, sb, 0.1) }
	}},
	{"insert_scan", func(b testing.TB, e *Engine, tr *tree.Tree) (threads.JobCode, func()) {
		const cands = 8
		for _, edge := range tr.Edges() {
			if tr.Nodes[edge.A].IsTip() || tr.Nodes[edge.B].IsTip() {
				continue
			}
			p, err := tr.DanglingPrune(edge.A, edge.B)
			if err != nil {
				continue
			}
			cs := tr.AppendRegraftCandidates(nil, p, 1<<20)
			if len(cs) < cands {
				tr.PlugBack(p)
				continue
			}
			e.InvalidateAll()
			out := e.EvaluateInsertions(p.Root, p.Attach, cs[:cands], nil) // every view warm
			return threads.JobInsertScan, func() { e.EvaluateInsertions(p.Root, p.Attach, cs[:cands], out) }
		}
		b.Fatalf("no prune with %d regraft candidates", cands)
		return 0, nil
	}},
}

// BenchmarkKernelCrossover is the sweep the pool's cost table
// (threads/cost.go) is fitted on: one job of the engine — a two-entry
// newview walk, an evaluate, a full relikelihood, a site log-likelihood
// pass, a makenewz setup, a makenewz core iteration, a legacy makenewz
// reduction, an 8-candidate insertion scan — as the engine posts it on a
// 2-worker pool over the inputs of the repository benchmark's -T
// workloads, run by the master over both ranges (inline, what the pool
// does when publishing does not pay) or published to the crew: hot,
// posts back to back so the helper is inside its spin, or parked, the
// master busy for 1.5 ms before every post while the helper falls asleep
// (only the post is timed). work_ns is the job's JobWork times
// the widest range: the time the table predicts for one range. The fit:
// an inline row's step_ps is the row its code's StepCost should hold to
// predict the row exactly, its descriptor walk priced at the committed
// newview row; every row's fixed_ns is what its post cost beyond the
// kernel time the table predicts for it — all ranges inline, the widest
// one published — which hotCost and wakeCost are fitted to on the hot
// and parked rows; an inline post is charged its kernels alone.
// wakes/op says the parked rows found the helper asleep.
// docs/profiling.md, "The cost table", has the sweep.
func BenchmarkKernelCrossover(b *testing.B) {
	const park = 1500 * time.Microsecond // past the longest spin the bank pays for (1 ms)
	for _, sh := range crossoverShapes {
		for _, job := range crossoverJobs {
			for _, side := range []string{"inline", "hot", "parked"} {
				b.Run(sh.name+"/"+job.name+"/"+side, func(b *testing.B) {
					e, pool, tr := crossoverEngine(b, sh.taxa, sh.chars, sh.gamma)
					code, post := job.ready(b, e, tr)
					total, widest := 0, 0
					for _, r := range pool.Ranges() {
						total += r.Len()
						widest = max(widest, r.Len())
					}
					var elapsed time.Duration
					var wakes int64
					var work int
					// walk and own are the job's steps (descriptor entries and
					// its code's own); cats the CLV categories a step covers
					// per pattern of the span, live share applied.
					var walk, own, cats float64
					pool.armed, pool.timed = code, func(r threads.JobRunner, code threads.JobCode) {
						work = r.(threads.WorkEstimator).JobWork(code)
						s := &jobTable[code]
						walk, own = float64(e.travHi-e.travLo), float64(s.steps+s.candSteps*len(e.scanCands))
						cats = float64(e.tileN) / float64(e.span.Len()) * float64(e.nCat)
						before := pool.Counters().Wakes
						for i := 0; i < b.N; i++ {
							switch side {
							case "inline":
								t0 := time.Now()
								for w, rg := range pool.Ranges() {
									r.RunJob(code, w, rg)
								}
								elapsed += time.Since(t0)
							case "parked":
								// Serial work on the master, not a sleep: only the
								// helper goes idle, as between the posts of a search.
								for t0 := time.Now(); time.Since(t0) < park; {
								}
								fallthrough
							default:
								t0 := time.Now()
								pool.Pool.Post(shared{r}, code)
								elapsed += time.Since(t0)
							}
						}
						wakes = pool.Counters().Wakes - before
					}
					post()
					if pool.timed != nil {
						b.Fatalf("%s posted no job %d", job.name, code)
					}
					ns := float64(elapsed.Nanoseconds()) / float64(b.N)
					span := widest
					if side == "inline" {
						span = total
						ps := ns * 1e3 / float64(total)
						if own == 0 {
							b.ReportMetric(ps/(walk*cats), "step_ps")
						} else {
							b.ReportMetric((ps-walk*cats*float64(threads.StepCost(threads.JobNewview)))/(own*cats), "step_ps")
						}
					}
					b.ReportMetric(ns, "ns/op")
					b.ReportMetric(float64(work)*float64(widest)/1e3, "work_ns")
					b.ReportMetric(ns-float64(work)*float64(span)/1e3, "fixed_ns")
					b.ReportMetric(float64(wakes)/float64(b.N), "wakes/op")
				})
			}
		}
	}
}
