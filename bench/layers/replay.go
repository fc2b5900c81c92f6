package main

import (
	"fmt"
	"time"

	"raxml"
	"raxml/bench/span"
	"raxml/internal/bootstop"
	"raxml/internal/consensus"
	"raxml/internal/likelihood"
	"raxml/internal/parsimony"
	"raxml/internal/rapidbs"
	"raxml/internal/rng"
	"raxml/internal/search"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// This file is the traced stage replay: the stages of the traced
// workload's analysis, re-run in-process on the workload's own
// alignment, model and thread count, with a span around every call the
// benchmark makes into a layer. The program under test carries no spans
// of its own yet; these are recorded from the benchmark's side of each
// layer boundary.

// jobNames maps the pool's job codes to the names the metrics use. The
// legacy full-matrix makenewz code gets a span name but no metric: the
// canonical paths never post it.
var jobNames = map[threads.JobCode]string{
	threads.JobNewview:       "newview",
	threads.JobEvaluate:      "evaluate",
	threads.JobMakenewz:      "makenewz_legacy",
	threads.JobMakenewzSetup: "makenewz_setup",
	threads.JobMakenewzCore:  "makenewz_core",
	threads.JobSiteLL:        "site_ll",
	threads.JobInsertScan:    "insert_scan",
	threads.JobParsimony:     "parsimony",
}

// spanPool is the span-recording Dispatcher. It EMBEDS the concrete
// pool, so everything but Post — and any optional interface the engine
// may probe its substrate for — stays promoted from *threads.Pool; only
// Post is wrapped, which is the layer boundary between likelihood and
// threads. With a nil recorder it is the untraced twin: same type, same
// engine behaviour, no spans.
type spanPool struct {
	*threads.Pool
	rec *span.Recorder
}

func (p *spanPool) Post(runner threads.JobRunner, code threads.JobCode) {
	if p.rec == nil {
		p.Pool.Post(runner, code)
		return
	}
	p.rec.Push("threads.post." + jobNames[code])
	p.Pool.Post(runner, code)
	p.rec.Pop()
}

var _ likelihood.Dispatcher = (*spanPool)(nil)

const replayReplicates = 4

// replay runs the stages once. rec may be nil (untraced). It returns
// the wall time and how many parsimony dispatches the stages posted —
// those go to the concrete *threads.Pool that parsimony.New requires,
// past the wrapper, so they can be counted but not timed one by one.
func replay(pat *raxml.Patterns, model string, workers int, seed int64, rec *span.Recorder) (time.Duration, int64, error) {
	push, pop := rec.Push, rec.Pop
	pool := threads.NewPool(workers, pat.NumPatterns())
	defer pool.Close()
	eng, err := newEngine(pat, model, &spanPool{pool, rec})
	if err != nil {
		return 0, 0, err
	}
	parsRNG, bsRNG := rng.New(seed), rng.New(seed+1)
	// The engine hands parsimony a plain crew: the wrapper is not a
	// *threads.Pool, so this is ThreadPool's serial fallback.
	parsPool := eng.ThreadPool()
	before := pool.Dispatches()

	start := time.Now()
	push("replay")
	push("parsimony.stepwise")
	t := parsimony.StepwiseAddition(pat, parsRNG, pool)
	pop()
	parsCount := pool.Dispatches() - before

	stages := []struct {
		name     string
		settings search.Settings
	}{{"search.fast", search.Fast()}, {"search.slow", search.Slow()}, {"search.thorough", search.Thorough()}}
	for _, st := range stages {
		push(st.name)
		res, err := search.Run(eng, t, st.settings)
		pop()
		if err != nil {
			return 0, 0, err
		}
		t = res.Tree.Clone()
	}

	var trees []*tree.Tree
	push("rapidbs.batch")
	runner := rapidbs.NewRunner(eng)
	push("rapidbs.replicate")
	err = runner.RunRange(0, replayReplicates, bsRNG, parsRNG, func(rep *rapidbs.Replicate) error {
		pop()
		trees = append(trees, rep.Tree)
		if len(trees) < replayReplicates {
			push("rapidbs.replicate")
		}
		return nil
	})
	pop()
	if err != nil {
		return 0, 0, err
	}

	push("consensus.greedy")
	_, err = consensus.Greedy(trees)
	pop()
	if err != nil {
		return 0, 0, err
	}
	push("bootstop.wc_test")
	_, _, err = bootstop.Converged(trees, bootstop.DefaultCriterion(), rng.New(seed+2))
	pop()
	if err != nil {
		return 0, 0, err
	}
	pop()
	return time.Since(start), parsCount + parsPool.Dispatches(), nil
}

func probeReplay(e *env) error {
	// Untraced first, then traced, then untraced again: the overhead
	// ratio compares the traced run with the faster untraced one, so a
	// host hiccup in one untraced run does not read as negative cost.
	var plain []float64
	var traced time.Duration
	var parsCount int64
	rec := span.New(e.run)
	for i := 0; i < 3; i++ {
		r := rec
		if i != 1 {
			r = nil
		}
		d, n, err := replay(e.replay, e.model, e.threads, e.seed, r)
		if err != nil {
			return err
		}
		if i == 1 {
			traced, parsCount = d, n
		} else {
			plain = append(plain, float64(d))
		}
	}
	e.set("trace.overhead_ratio", float64(traced)/min(plain[0], plain[1]))
	if e.spans != "" {
		if err := rec.WriteFile(e.spans); err != nil {
			return err
		}
	}

	spans := rec.Spans()
	by := span.ByName(spans)
	root := float64(by["replay"].Dur)
	if root <= 0 {
		return fmt.Errorf("replay recorded no root span")
	}
	ms := func(name string) float64 { return float64(by[name].Dur) / 1e6 }
	posts := 0.0
	for code, job := range jobNames {
		if code == threads.JobMakenewz {
			continue
		}
		t := by["threads.post."+job]
		e.set("threads.job."+job+".count", float64(t.Count))
		e.set("threads.job."+job+".busy_ms", float64(t.Dur)/1e6)
		posts += float64(t.Dur)
	}
	// Parsimony posts bypass the wrapper (see replay): their count is
	// the concrete pools' dispatch counters, and their busy time is
	// bounded above by the one stage that is nothing but parsimony.
	e.set("threads.job.parsimony.count", float64(parsCount))
	e.set("threads.job.parsimony.busy_ms", ms("parsimony.stepwise"))
	e.set("threads.post_busy_share", posts/root)
	searchDur := by["search.fast"].Dur + by["search.slow"].Dur + by["search.thorough"].Dur
	searchSelf := by["search.fast"].SelfNs + by["search.slow"].SelfNs + by["search.thorough"].SelfNs
	e.set("search.self_share", float64(searchSelf)/float64(searchDur))
	e.set("parsimony.stepwise_ms", ms("parsimony.stepwise"))
	e.set("search.fast_ms", ms("search.fast"))
	e.set("search.slow_ms", ms("search.slow"))
	e.set("search.thorough_ms", ms("search.thorough"))
	e.set("rapidbs.replicate_ms", ms("rapidbs.replicate")/float64(by["rapidbs.replicate"].Count))
	e.set("consensus.greedy_ms", ms("consensus.greedy"))
	e.set("bootstop.wc_test_ms", ms("bootstop.wc_test"))
	return nil
}
