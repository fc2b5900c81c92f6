package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"raxml"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/parsimony"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// This file probes the layers a single process uses: msa, likelihood
// and threads.

func probeMSA(e *env) error {
	data, err := os.ReadFile(e.widePath)
	if err != nil {
		return err
	}
	var pat *raxml.Patterns
	ns := measure(e.budget(200e6), func() {
		if pat, err = raxml.ParseAlignment(data); err != nil {
			panic(err)
		}
	})
	e.set("msa.parse_compress_ms", ns/1e6)
	e.set("msa.patterns", float64(pat.NumPatterns()))
	return nil
}

// rates returns the rate treatment of a model name for pat.
func rates(model string, pat *raxml.Patterns) (*gtr.RateCategories, error) {
	if model == "GTRGAMMA" {
		return gtr.NewGamma(1.0, 4)
	}
	return gtr.NewUniform(pat.NumPatterns()), nil
}

// newEngine builds an engine the way the analysis drivers do: default
// GTR, empirical base frequencies, the given substrate.
func newEngine(pat *raxml.Patterns, model string, pool likelihood.Dispatcher) (*likelihood.Engine, error) {
	r, err := rates(model, pat)
	if err != nil {
		return nil, err
	}
	eng, err := likelihood.New(pat, gtr.Default(), r, likelihood.Config{Pool: pool})
	if err != nil {
		return nil, err
	}
	eng.EstimateEmpiricalFreqs()
	return eng, nil
}

// startTree is a parsimony stepwise-addition tree for pat: a realistic
// topology with default branch lengths, the state every search starts
// from.
func startTree(pat *raxml.Patterns, seed int64) *tree.Tree {
	pool := threads.NewPool(1, pat.NumPatterns())
	defer pool.Close()
	return parsimony.StepwiseAddition(pat, rng.New(seed), pool)
}

// relik is the full-tree relikelihood every layer's cost is expressed
// in: invalidate every conditional likelihood vector, recompute them
// all and evaluate — exactly one dispatch.
func relik(eng *likelihood.Engine) float64 {
	eng.InvalidateAll()
	return eng.LogLikelihood()
}

// relikEngine returns an engine over workers threads with t attached
// and warmed, and the function closing its pool.
func relikEngine(pat *raxml.Patterns, model string, workers int, t *tree.Tree) (*likelihood.Engine, func(), error) {
	pool := threads.NewPool(workers, pat.NumPatterns())
	eng, err := newEngine(pat, model, pool)
	if err == nil {
		err = eng.AttachTree(t.Clone())
	}
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	relik(eng)
	return eng, pool.Close, nil
}

func probeLikelihood(e *env) error {
	pat := e.wide
	t := startTree(pat, e.seed)
	patterns := float64(pat.NumPatterns())

	// Relikelihood per pattern and recomputed node, CAT and GAMMA, and
	// the in-run scalar/AVX2 ratio, each engine binding its kernel
	// table when it is built.
	perNode := map[string]float64{}
	var catNS, nodes float64
	for _, model := range []string{"GTRCAT", "GTRGAMMA"} {
		eng, closePool, err := relikEngine(pat, model, 1, t)
		if err != nil {
			return err
		}
		nv0, _ := eng.Counts()
		relik(eng)
		nv1, _ := eng.Counts()
		nodes = float64(nv1 - nv0)
		ns := measure(e.budget(400e6), func() { relik(eng) })
		perNode[model] = ns / (patterns * nodes)
		if model == "GTRCAT" {
			catNS = ns
			e.set("likelihood.clv_mb", float64(eng.MemoryBytes())/(1<<20))
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < 20; i++ {
				relik(eng)
			}
			runtime.ReadMemStats(&m1)
			e.set("likelihood.relik_alloc_bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/20)
		}
		closePool()
	}
	e.set("likelihood.relik_ns_per_pattern_node.cat", perNode["GTRCAT"])
	e.set("likelihood.relik_ns_per_pattern_node.gamma", perNode["GTRGAMMA"])
	// Computed from the tile geometry, not measured: an inner-inner CAT
	// newview is, per pattern and node, 4 states x (two 4-term dot
	// products + 1 multiply) = 60 flops over 3 CLV tiles of 4 doubles
	// (two read, one written). Tip children are cheaper (table lookups),
	// so both figures are upper bounds of the true rates.
	e.set("likelihood.relik_gflops_computed", 60*patterns*nodes/catNS)
	e.set("likelihood.relik_gbps_computed", 96*patterns*nodes/catNS)

	// The kernel table covers the four-category (GAMMA) kernels only, so
	// the ratio is taken on GAMMA engines; CAT runs the same code in
	// either mode.
	if err := likelihood.SetKernelMode("scalar"); err != nil {
		return err
	}
	scalar, closeScalar, err := relikEngine(pat, "GTRGAMMA", 1, t)
	if err != nil {
		return err
	}
	defer closeScalar()
	ratio := 1.0 // no AVX2 on this host or build: both engines are the scalar set
	if likelihood.SetKernelMode("avx2") == nil {
		avx2, closeAVX2, err := relikEngine(pat, "GTRGAMMA", 1, t)
		if err != nil {
			return err
		}
		defer closeAVX2()
		// Interleave the two so host drift hits both sides alike.
		var s, a []float64
		for i := 0; i < 5; i++ {
			s = append(s, measure(e.budget(60e6), func() { relik(scalar) }))
			a = append(a, measure(e.budget(60e6), func() { relik(avx2) }))
		}
		ratio = median(s) / median(a)
	}
	e.set("likelihood.avx2_over_scalar", ratio)
	if err := likelihood.SetKernelMode("auto"); err != nil {
		return err
	}

	// Evaluate at one edge with every vector fresh, branch optimization
	// over every edge from the same starting lengths, and the
	// allocations of one full branch sweep.
	eng, closePool, err := relikEngine(pat, "GTRCAT", 1, t)
	if err != nil {
		return err
	}
	defer closePool()
	edge := t.Edges()[0]
	eng.EvaluateEdge(edge.A, edge.B)
	e.set("likelihood.evaluate_ns_per_pattern", measure(e.budget(200e6), func() { eng.EvaluateEdge(edge.A, edge.B) })/patterns)

	var sweeps []float64
	iters := 0
	for i := 0; i < 5; i++ {
		if err := eng.AttachTree(t.Clone()); err != nil {
			return err
		}
		relik(eng)
		iters = 0
		start := time.Now()
		for _, ed := range eng.Tree().Edges() {
			eng.OptimizeBranch(ed.A, ed.B)
			iters += eng.LastNewtonIterations()
		}
		sweeps = append(sweeps, float64(time.Since(start).Nanoseconds()))
	}
	branches := float64(len(t.Edges()))
	e.set("likelihood.makenewz_us_per_branch", median(sweeps)/1e3/branches)
	// One sweep from the pinned start tree: an exact count.
	e.set("likelihood.newton_iters_per_branch", float64(iters)/branches)

	if err := eng.AttachTree(t.Clone()); err != nil {
		return err
	}
	relik(eng)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	eng.OptimizeAllBranches(1, 1e-3)
	runtime.ReadMemStats(&m1)
	e.set("likelihood.optimize_all_allocs", float64(m1.Mallocs-m0.Mallocs))
	return nil
}

// noop is a JobRunner that does nothing: what is left is the barrier.
type noop struct{}

func (noop) RunJob(threads.JobCode, int, threads.Range) {}

var chainSink [2]float64

// chain is a fixed register-only dependent multiply-add chain (~5 ms).
func chain(slot int) {
	x := 1.0
	for i := 0; i < 1_500_000; i++ {
		x = x*0.9999999 + 0.5
	}
	chainSink[slot] = x
}

// twoThreadRatio times two concurrent copies of chain over one copy:
// 1.0 when this process's two threads run on two cores, 2.0 when they
// share one. On the reference host the guest scheduler sometimes leaves
// both threads of a process on one vCPU for minutes; every two-thread
// probe of that process then reads as if it had one core, and this
// number says so.
func twoThreadRatio() float64 {
	one := measure(20*time.Millisecond, func() { chain(0) })
	two := measure(20*time.Millisecond, func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); chain(1) }()
		chain(0)
		wg.Wait()
	})
	return two / one
}

func probeThreads(e *env) error {
	ratio := twoThreadRatio()
	defer func() { e.set("host.two_thread_ratio", max(ratio, twoThreadRatio())) }()
	for _, workers := range []int{1, 2} {
		pool := threads.NewPool(workers, e.wide.NumPatterns())
		const batch = 2000
		ns := measure(e.budget(200e6), func() {
			for i := 0; i < batch; i++ {
				pool.Post(noop{}, threads.JobNewview)
			}
		})
		pool.Close()
		e.set(fmt.Sprintf("threads.post_empty_ns.t%d", workers), ns/batch)
	}
	for _, in := range []struct {
		name string
		pat  *raxml.Patterns
	}{{"wide", e.wide}, {"narrow", e.narrow}} {
		t := startTree(in.pat, e.seed)
		one, close1, err := relikEngine(in.pat, "GTRCAT", 1, t)
		if err != nil {
			return err
		}
		two, close2, err := relikEngine(in.pat, "GTRCAT", 2, t)
		if err != nil {
			close1()
			return err
		}
		var t1, t2 []float64
		for i := 0; i < 5; i++ {
			t1 = append(t1, measure(e.budget(50e6), func() { relik(one) }))
			t2 = append(t2, measure(e.budget(50e6), func() { relik(two) }))
		}
		close1()
		close2()
		e.set("threads.relik_speedup_t2."+in.name, median(t1)/median(t2))
	}
	return nil
}
