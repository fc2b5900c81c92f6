package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync/atomic"
	"syscall"
	"time"

	"raxml"
	"raxml/internal/fabric"
	"raxml/internal/grid"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/threads"
)

// This file probes the layers that span ranks: core (the facade's
// comprehensive driver), fabric links, the fine grain reached through a
// one-job grid, and the grid scheduler itself.

func options(e *env) raxml.Options {
	return raxml.Options{
		Bootstraps: 10, Ranks: 2, Workers: 1,
		SeedParsimony: e.seed, SeedBootstrap: e.seed + 1,
		Model: raxml.GTRCAT, EmpiricalFreqs: true,
	}
}

// probeCore runs the paper's hybrid schedule through the facade and
// reports its stages as Figs. 3-4 do: per stage, the slowest rank.
func probeCore(e *env) error {
	res, err := raxml.Comprehensive(e.wide, options(e))
	if err != nil {
		return err
	}
	var boot, fast, slow, thorough, total, worst time.Duration
	dispatches := int64(0)
	for _, r := range res.Ranks {
		boot = max(boot, r.Times.Bootstrap)
		fast = max(fast, r.Times.Fast)
		slow = max(slow, r.Times.Slow)
		thorough = max(thorough, r.Times.Thorough)
		total += r.Times.Total()
		worst = max(worst, r.Times.Total())
		dispatches += r.Dispatches
	}
	e.set("core.stage_bootstrap_s", boot.Seconds())
	e.set("core.stage_fast_s", fast.Seconds())
	e.set("core.stage_slow_s", slow.Seconds())
	e.set("core.stage_thorough_s", thorough.Seconds())
	e.set("core.rank_imbalance", worst.Seconds()*float64(len(res.Ranks))/total.Seconds())
	e.set("threads.dispatches", float64(dispatches))
	return nil
}

// echo answers every frame on l with the same frame until l closes.
func echo(l fabric.Link) {
	for {
		tag, p, err := l.Recv()
		if err != nil || l.Send(tag, p) != nil {
			return
		}
	}
}

// pingPong returns the median round trip of a size-byte frame in ns.
func pingPong(e *env, l fabric.Link, size int, budget time.Duration) (float64, error) {
	buf := make([]byte, size)
	var err error
	ns := measure(e.budget(budget), func() {
		if err == nil {
			if err = l.Send(1, buf); err == nil {
				_, _, err = l.Recv()
			}
		}
	})
	return ns, err
}

func probeFabric(e *env) error {
	m, w := fabric.LinkPair()
	go echo(w)
	ns, err := pingPong(e, m, 64, 100e6)
	m.Close()
	if err != nil {
		return err
	}
	e.set("fabric.link_rtt_us.chan", ns/1e3)

	ln, err := fabric.ListenStar("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() {
		if l, _, err := ln.AcceptLink(); err == nil {
			echo(l)
			l.Close()
		}
	}()
	tcp, err := fabric.DialStar(ln.Addr(), os.Getpid())
	if err != nil {
		return err
	}
	defer tcp.Close()
	if ns, err = pingPong(e, tcp, 64, 200e6); err != nil {
		return err
	}
	e.set("fabric.link_rtt_us.tcp", ns/1e3)
	// Throughput from echoed 64 KiB frames: each round trip moves the
	// frame once in each direction.
	const frame = 64 << 10
	if ns, err = pingPong(e, tcp, frame, 200e6); err != nil {
		return err
	}
	e.set("fabric.link_mbps.tcp", 2*frame/(ns/1e9)/1e6)
	return nil
}

// countingLink counts the frames and payload bytes crossing one link,
// at the wire boundary and from the benchmark's side of it.
type countingLink struct {
	fabric.Link
	msgs, bytes *atomic.Int64
}

func (l *countingLink) Send(tag byte, p []byte) error {
	l.msgs.Add(1)
	l.bytes.Add(int64(len(p)))
	return l.Link.Send(tag, p)
}

func (l *countingLink) Recv() (byte, []byte, error) {
	tag, p, err := l.Link.Recv()
	if err == nil {
		l.msgs.Add(1)
		l.bytes.Add(int64(len(p)))
	}
	return tag, p, err
}

// SetRecvDeadline keeps the wrapped link's per-dispatch deadlines armed.
func (l *countingLink) SetRecvDeadline(at time.Time) error {
	if !fabric.SetLinkRecvDeadline(l.Link, at) {
		return errors.New("link has no receive deadline")
	}
	return nil
}

// oneWorkerFleet returns a fleet with exactly one admitted worker over
// the transport, every frame to and from it counted, and the function
// that shuts it down and reaps what it spawned.
func oneWorkerFleet(e *env, transport string, msgs, bytes *atomic.Int64) (*grid.Fleet, func(), error) {
	fleet := grid.NewFleet(nil)
	fleet.LinkWrapper = func(_ int, l fabric.Link) fabric.Link { return &countingLink{l, msgs, bytes} }
	if transport == "chan" {
		fleet.SpawnLocal(1)
		return fleet, fleet.Shutdown, nil
	}
	ln, err := fabric.ListenStar("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	fleet.AcceptFrom(ln)
	cmd := exec.Command(e.raxml, "-grid-worker", "-grid-connect", ln.Addr())
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		ln.Close()
		return nil, nil, err
	}
	stop := func() {
		fleet.Shutdown()
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
			<-done
		}
		ln.Close()
	}
	if !fleet.WaitAlive(1, 10*time.Second) {
		stop()
		return nil, nil, fmt.Errorf("TCP worker did not join within 10s")
	}
	return fleet, stop, nil
}

// catSet is the model set of a CAT analysis of pat, fresh per lease.
func catSet(pat *raxml.Patterns) func() (*gtr.PartitionSet, error) {
	return func() (*gtr.PartitionSet, error) {
		set := gtr.NewPartitionSet(1)
		set.Rates[0] = gtr.NewUniform(pat.NumPatterns())
		return set, nil
	}
}

// runJob runs body as the only job of a fresh grid over the fleet.
func runJob(fleet *grid.Fleet, body func(ctx *grid.JobContext) error) error {
	g := grid.New(grid.Config{Fleet: fleet, Concurrency: 1, ThreadsPerRank: 1})
	if err := g.Add(&grid.Job{ID: "probe", Run: body}); err != nil {
		return err
	}
	return g.Run()
}

// probeFinegrain measures the distributed fine grain the way a grid
// job gets it: an engine obtained inside JobContext.Elastic with one
// leased worker, so master and worker each own a stripe of wide.
func probeFinegrain(e *env, transport string) error {
	var msgs, bytes atomic.Int64
	fleet, stop, err := oneWorkerFleet(e, transport, &msgs, &bytes)
	if err != nil {
		return err
	}
	defer stop()
	pat := e.wide
	t := startTree(pat, e.seed)
	local, closeLocal, err := relikEngine(pat, "GTRCAT", 1, t)
	if err != nil {
		return err
	}
	defer closeLocal()
	return runJob(fleet, func(ctx *grid.JobContext) error {
		return ctx.Elastic(pat, catSet(pat), func(eng *likelihood.Engine) error {
			eng.EstimateEmpiricalFreqs()
			if err := eng.AttachTree(t.Clone()); err != nil {
				return err
			}
			relik(eng)
			var dist, loc []float64
			for i := 0; i < 5; i++ {
				dist = append(dist, measure(e.budget(60e6), func() { relik(eng) }))
				loc = append(loc, measure(e.budget(30e6), func() { relik(local) }))
			}
			e.set("finegrain.relik_over_local."+transport, median(dist)/median(loc))
			edge := t.Edges()[0]
			eng.EvaluateEdge(edge.A, edge.B)
			e.set("finegrain.warm_eval_us."+transport, measure(e.budget(150e6), func() { eng.EvaluateEdge(edge.A, edge.B) })/1e3)
			if transport != "tcp" {
				return nil
			}
			// Wire cost of one warm full-tree dispatch, counted at the
			// link: exact, so it repeats across runs.
			const n = 50
			d0, m0, b0 := eng.DispatchCount(), msgs.Load(), bytes.Load()
			for i := 0; i < n; i++ {
				relik(eng)
			}
			dispatches := float64(eng.DispatchCount() - d0)
			e.set("finegrain.msgs_per_dispatch", float64(msgs.Load()-m0)/dispatches)
			e.set("finegrain.wire_bytes_per_dispatch", float64(bytes.Load()-b0)/dispatches)
			// The distributed pool says which stripe each rank owns; a
			// dispatch waits for the widest one.
			striped, ok := eng.Pool().(interface{ Stripes() []threads.Range })
			if !ok {
				return fmt.Errorf("the leased engine's substrate does not report its stripes")
			}
			widest, stripes := 0, striped.Stripes()
			for _, s := range stripes {
				widest = max(widest, s.Len())
			}
			e.set("finegrain.stripe_imbalance", float64(widest*len(stripes))/float64(pat.NumPatterns()))
			return nil
		})
	})
}

func probeGrid(e *env) error {
	// Scheduling cost alone: 40 jobs that do nothing, every second one
	// depending on its predecessor, no fleet.
	const jobs = 40
	nop := func(*grid.JobContext) error { return nil }
	ns := measure(e.budget(100e6), func() {
		g := grid.New(grid.Config{})
		for i := 0; i < jobs; i++ {
			j := &grid.Job{ID: fmt.Sprintf("j%d", i), Run: nop}
			if i%2 == 1 {
				j.Deps = []string{fmt.Sprintf("j%d", i-1)}
			}
			if err := g.Add(j); err != nil {
				panic(err)
			}
		}
		if err := g.Run(); err != nil {
			panic(err)
		}
	})
	e.set("grid.schedule_us_per_job", ns/1e3/jobs)

	// Lease, worker init and release around an empty body, in-process.
	var msgs, bytes atomic.Int64
	fleet, stop, err := oneWorkerFleet(e, "chan", &msgs, &bytes)
	if err != nil {
		return err
	}
	defer stop()
	pat := e.wide
	err = runJob(fleet, func(ctx *grid.JobContext) error {
		var inner error
		ns := measure(e.budget(150e6), func() {
			if err := ctx.Elastic(pat, catSet(pat), func(*likelihood.Engine) error { return nil }); err != nil {
				inner = err
			}
		})
		e.set("grid.lease_release_us", ns/1e3)
		return inner
	})
	if err != nil {
		return err
	}

	// Checkpoint count and size of one bootstrap job, master-local.
	opts := options(e)
	opts.Ranks = 1
	saved := 0
	g := grid.New(grid.Config{Fleet: grid.NewFleet(nil), Concurrency: 1, OnCheckpoint: func(string, int) { saved++ }})
	a := &grid.Analysis{Pat: pat, Opts: opts, Starts: 0, Replicates: replayReplicates, Batch: replayReplicates}
	if _, err := a.Build(g); err != nil {
		return err
	}
	if err := g.Run(); err != nil {
		return err
	}
	size := 0
	for _, cp := range g.Checkpoints() {
		size += len(cp)
	}
	e.set("grid.checkpoints", float64(saved))
	e.set("grid.checkpoint_bytes", float64(size))
	return nil
}
