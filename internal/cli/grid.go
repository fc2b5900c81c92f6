package cli

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"raxml/internal/core"
	"raxml/internal/fabric"
	"raxml/internal/finegrain"
	"raxml/internal/grid"
	"raxml/internal/msa"
)

// This file wires the elastic grid scheduler (-grid) into the raxml
// tool: one comprehensive analysis — ML starts, rapid-bootstrap
// replicate batches, bootstopping, consensus — scheduled as a job DAG
// over a fleet of R fine-grain worker ranks. With -grid-transport chan
// the fleet is in-process goroutines; with tcp the master spawns R
// copies of its own binary in grid-worker mode, each dialing back and
// announcing its PID — real OS processes that chaos runs can SIGKILL
// (-grid-kill-after) to exercise checkpoint/re-stripe recovery.

// gridParams carries the -grid* flag values into runGrid.
type gridParams struct {
	workers   int    // fleet size R (0: every job runs master-local)
	transport string // chan or tcp
	starts    int    // independent ML searches
	batch     int    // replicates per bootstrap job
	bootstop  bool   // adaptive rounds under the WC test
	killAfter int    // chaos: kill one worker at this checkpoint ordinal
	faultSeed int64  // chaos: seeded per-worker fault schedules (0 = off)
	spawn     workerArgs
}

// RaxmlGridWorker runs one spawned worker process, of a -grid fleet or
// a -fine tcp run: dial the master's star listener announcing our PID,
// then serve fine-grain sessions — init/job/release cycles from
// whichever pool leases this rank — until shutdown or the master goes
// away. Everything a session needs (pattern stripe, model shape, thread
// count) arrives in its init frame, so a worker reads no input files.
func RaxmlGridWorker(connect string, stderr io.Writer) error {
	link, err := fabric.DialStar(connect, os.Getpid())
	if err != nil {
		return fmt.Errorf("grid worker: %w", err)
	}
	defer link.Close()
	if err := finegrain.ServeSessions(link); err != nil {
		fmt.Fprintf(stderr, "raxml grid worker pid %d: %v\n", os.Getpid(), err)
		return err
	}
	return nil
}

// runGrid executes the comprehensive analysis as a grid workload and
// writes the standard output files plus the JSONL event trace.
func runGrid(pat *msa.Patterns, opts core.Options, p gridParams, runName, outDir string, stdout io.Writer) error {
	tracePath := filepath.Join(outDir, "RAxML_gridTrace."+runName+".jsonl")
	traceFile, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	defer traceFile.Close()
	tracer := grid.NewTracer(traceFile)

	fleet := grid.NewFleet(tracer)
	if p.faultSeed != 0 {
		// Deterministic chaos: every admitted worker's link carries its
		// own fault schedule derived from the run seed and the worker id
		// (drops, delays, corruption, severs, stragglers), and the
		// recovery timeouts shrink so injected stalls convert to restripes
		// in seconds. The same seed replays the same schedules.
		fmt.Fprintf(stdout, "chaos: injecting link faults from seed %d\n", p.faultSeed)
		finegrain.DispatchTimeout = 5 * time.Second
		finegrain.ReleaseTimeout = 2 * time.Second
		grid.ProbeTimeout = 2 * time.Second
		seed := p.faultSeed
		fleet.LinkWrapper = func(id int, l fabric.Link) fabric.Link {
			return fabric.InjectFaults(l, fabric.RandomFaultPlan(seed*1000+int64(id)))
		}
	}
	stop, sup, err := startWorkers(fleet, p.workers, p.transport, p.spawn, stdout)
	if err != nil {
		return err
	}
	defer stop()
	fleet.StartHeartbeats(grid.DefaultHeartbeatInterval)

	fmt.Fprintf(stdout, "Grid analysis: %d ML starts + %d bootstrap replicates over %d worker ranks (%s), %d threads/rank\n",
		p.starts, opts.Bootstraps, p.workers, orChan(p.transport), opts.Workers)
	cfg := grid.Config{
		Fleet:          fleet,
		Tracer:         tracer,
		ThreadsPerRank: opts.Workers,
	}
	if p.killAfter > 0 {
		killed := false
		cfg.OnCheckpoint = func(job string, ordinal int) {
			if ordinal == p.killAfter && !killed {
				killed = true
				if victim, ok := fleet.Kill(job); ok {
					fmt.Fprintf(stdout, "chaos: killed worker %d at checkpoint %d\n", victim, ordinal)
				}
			}
		}
	}
	g := grid.New(cfg)
	// Trap SIGINT/SIGTERM for a clean abort: cancel the grid
	// cooperatively (running jobs unwind at their next checkpoint
	// boundary), then fall through to the normal teardown — fleet
	// shutdown, worker reaping, trace flush — so an interrupted tcp run
	// leaves no orphaned -grid-worker processes behind.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		if sig, ok := <-sigCh; ok {
			fmt.Fprintf(stdout, "grid: %v — canceling (trace: %s)\n", sig, tracePath)
			g.Cancel()
		}
	}()
	analysis := &grid.Analysis{
		Pat:        pat,
		Opts:       opts,
		Starts:     p.starts,
		Replicates: opts.Bootstraps,
		Batch:      p.batch,
		Bootstop:   p.bootstop,
	}
	start := time.Now()
	res, err := analysis.Build(g)
	if err != nil {
		return err
	}
	runErr := g.Run()
	shutdownFleet(fleet, sup)
	if runErr != nil {
		return fmt.Errorf("grid run (trace: %s): %w", tracePath, runErr)
	}
	elapsed := time.Since(start)
	return writeGridResult(res, analysis, p, tracePath, runName, outDir, elapsed, stdout)
}

// workerArgs is what a master hands down to every worker process it
// spawns, in every mode: the kernel set, so all ranks compute
// with the same one, and — when the master records a CPU profile — a
// profile path of the worker's own, so the far half of a wire round
// trip can be read next to the near one.
type workerArgs struct {
	kernels    string
	cpuProfile string // the master's -cpuprofile ("" = none)
	firstSlot  int    // the number spawn slot 0 goes by: 0 for a grid fleet, 1 for -fine ranks
}

// argv returns the flags for the worker in spawn slot `slot`: its
// profile lands in <master's file>.worker<firstSlot+slot>. A respawned
// worker reuses its slot's name and overwrites it.
func (w workerArgs) argv(slot int) []string {
	args := []string{"-kernels", w.kernels}
	if w.cpuProfile != "" {
		args = append(args, "-cpuprofile", fmt.Sprintf("%s.worker%d", w.cpuProfile, w.firstSlot+slot))
	}
	return args
}

// startWorkers admits n workers to the fleet — the one way -grid,
// -serve and -fine start theirs. Over chan they are goroutines of this
// process. Over tcp they are supervised copies of this binary dialing
// back over loopback, and it blocks until the fleet has admitted them
// all; the supervisor respawns a worker that dies unexpectedly (the
// replacement dials back and enters the free pool as a late joiner).
// The returned stop ends the supervision, reaps the processes and
// closes the listener; sup is nil over chan. The workers inherit
// spawn's flags.
func startWorkers(fleet *grid.Fleet, n int, transport string, spawn workerArgs, stdout io.Writer) (stop func(), sup *grid.Supervisor, err error) {
	switch transport {
	case "", "chan":
		fleet.SpawnLocal(n)
		return func() {}, nil, nil
	case "tcp":
	default:
		return nil, nil, fmt.Errorf("unknown transport %q (want chan or tcp)", transport)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("locating own binary for worker spawn: %w", err)
	}
	ln, err := fabric.ListenStar("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	fleet.AcceptFrom(ln)
	fmt.Fprintf(stdout, "grid: spawning %d worker processes (transport tcp, %s)\n", n, ln.Addr())
	sup, err = grid.NewSupervisor(n, func(slot int) (*exec.Cmd, error) {
		cmd := exec.Command(exe, append(spawn.argv(slot),
			"-grid-worker",
			"-grid-connect", ln.Addr(),
		)...)
		cmd.Stderr = os.Stderr
		return cmd, nil
	})
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	stop = func() {
		// Before the listener closes: respawns must stop first. Workers
		// that write a CPU profile get a moment to act on the shutdown
		// frame the fleet sent them — the profile is flushed on the way
		// out — before whatever is still alive is killed.
		var grace time.Duration
		if spawn.cpuProfile != "" {
			grace = 2 * time.Second
		}
		sup.StopAfter(grace)
		ln.Close()
	}
	if !fleet.WaitAlive(n, 30*time.Second) {
		stop()
		return nil, nil, fmt.Errorf("grid: only %d of %d workers joined within 30s", fleet.NumAlive(), n)
	}
	return stop, sup, nil
}

// shutdownFleet is the teardown order of a fleet of spawned workers:
// stop supervising, then send the shutdown frames, and leave the reaping
// to the stop function startWorkers returned. A worker obeys its
// shutdown frame by exiting, which a supervisor still supervising would
// take for a crash — and sleep a respawn backoff the exit has to wait
// out. sup is nil on the chan transport.
func shutdownFleet(fleet *grid.Fleet, sup *grid.Supervisor) {
	fleet.StopHeartbeats()
	if sup != nil {
		sup.StopRespawning()
	}
	fleet.Shutdown()
}

func orChan(transport string) string {
	if transport == "" {
		return "chan"
	}
	return transport
}

// writeGridResult writes the comprehensive-analysis output files from a
// grid result: best tree, support-annotated best tree, replicate trees,
// greedy consensus, and the info summary.
func writeGridResult(res *grid.Result, a *grid.Analysis, p gridParams, tracePath, runName, outDir string, elapsed time.Duration, stdout io.Writer) error {
	var paths []string
	write := func(name, content string) error {
		path := filepath.Join(outDir, name+"."+runName)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		paths = append(paths, path)
		return nil
	}
	outputs, err := res.Outputs()
	if err != nil {
		return err
	}
	for _, o := range outputs {
		if err := write(o.File, o.Content); err != nil {
			return err
		}
	}
	var info strings.Builder
	fmt.Fprintf(&info, `grid comprehensive analysis (%s)
alignment: %d taxa, %d patterns
worker ranks: %d (%s)  threads/rank: %d
ML starts: %d  bootstrap replicates: %d (batch %d, %d rounds)
bootstop: converged=%v WC-distance=%.6f
best final log-likelihood: %.6f (start %d)
elapsed: %s
trace: %s
`, a.Opts.Model, a.Pat.NumTaxa(), a.Pat.NumPatterns(),
		p.workers, orChan(p.transport), a.Opts.Workers,
		len(res.Starts), len(res.Replicates), a.Batch, res.Rounds,
		res.Converged, res.WCDistance,
		res.Best.LogLikelihood, res.Best.Index,
		elapsed.Round(time.Millisecond), tracePath)
	if err := write("RAxML_info", info.String()); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Grid run done in %s: %d rounds, %d replicates, converged=%v\n",
		elapsed.Round(time.Millisecond), res.Rounds, len(res.Replicates), res.Converged)
	if len(res.Starts) > 0 {
		fmt.Fprintf(stdout, "Best log-likelihood: %.6f (start %d)\n", res.Best.LogLikelihood, res.Best.Index)
	}
	for _, path := range paths {
		fmt.Fprintf(stdout, "Wrote %s\n", path)
	}
	fmt.Fprintf(stdout, "Event trace:         %s\n", tracePath)
	return nil
}
