package grid

import (
	"testing"

	"raxml/internal/fabric"
	"raxml/internal/finegrain"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/rng"
	"raxml/internal/tree"
)

// TestLeasedDispatchAllocationFree pins the allocation-free dispatch
// path where a grid job actually runs it: a finegrain pool over leased
// links, the worker serving its end of one. Pool and worker hand spent
// payloads back through fabric.RecycleLink, and both link kinds keep a
// free list, so once warm a job frame and its
// partial — an evaluation's few bytes, a gathered setup's sumtable rows,
// a distributed Newton iteration's factors — reuse their buffers on the
// master and on the worker alike (AllocsPerRun counts the whole
// process, and the worker is a goroutine of it).
func TestLeasedDispatchAllocationFree(t *testing.T) {
	pat := testAnalysis(t).Pat
	topo := tree.Random(pat.Names, rng.New(3))
	links := map[string]func(t *testing.T) (master, worker fabric.Link){
		"LinkPair": func(*testing.T) (fabric.Link, fabric.Link) { return fabric.LinkPair() },
		"TCP": func(t *testing.T) (fabric.Link, fabric.Link) {
			ln, err := fabric.ListenStar("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			dialed := make(chan fabric.Link, 1)
			go func() {
				l, err := fabric.DialStar(ln.Addr(), 0)
				if err != nil {
					t.Error(err)
				}
				dialed <- l
			}()
			master, _, err := ln.AcceptLink()
			if err != nil {
				t.Fatal(err)
			}
			return master, <-dialed
		},
	}
	for name, connect := range links {
		for _, gathered := range []bool{true, false} {
			side := "distributed core"
			if gathered {
				side = "gathered"
			}
			t.Run(name+"/"+side, func(t *testing.T) {
				was := finegrain.SumtableGatherLimit
				defer func() { finegrain.SumtableGatherLimit = was }()
				if !gathered {
					finegrain.SumtableGatherLimit = 0
				}
				master, worker := connect(t)
				served := make(chan error, 1)
				go func() { served <- finegrain.ServeSessions(worker) }()

				set := gtr.NewPartitionSet(1)
				set.Rates[0] = gtr.NewUniform(pat.NumPatterns())
				pool, err := finegrain.NewPool([]fabric.Link{master}, pat, set, 1)
				if err != nil {
					t.Fatal(err)
				}
				if pool.GathersSumtable() != gathered {
					t.Fatalf("pool gathers = %v on the %s side", pool.GathersSumtable(), side)
				}
				eng, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.AttachTree(topo.Clone()); err != nil {
					t.Fatal(err)
				}
				_ = eng.LogLikelihood()
				e := eng.Tree().Edges()[0]
				// One warm round trip of each shape: an evaluation, and a
				// whole branch optimization (at its optimum after the
				// warm-up: a setup job, plus a core job when distributed).
				for i := 0; i < 32; i++ {
					_ = eng.EvaluateEdge(e.A, e.B)
					eng.OptimizeBranch(e.A, e.B)
				}
				if avg := testing.AllocsPerRun(100, func() { _ = eng.EvaluateEdge(e.A, e.B) }); avg != 0 {
					t.Errorf("warm EvaluateEdge allocates %.1f times per round trip, want 0", avg)
				}
				if avg := testing.AllocsPerRun(100, func() { eng.OptimizeBranch(e.A, e.B) }); avg != 0 {
					t.Errorf("warm OptimizeBranch allocates %.1f times per call, want 0", avg)
				}
				if dead := pool.Release(); len(dead) != 0 {
					t.Errorf("Release reported dead ranks %v", dead)
				}
				master.Close()
				if err := <-served; err != nil {
					t.Errorf("worker exit: %v", err)
				}
			})
		}
	}
}
