package cli

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"

	"raxml/internal/fabric"
	"raxml/internal/finegrain"
)

// This file wires the distributed fine grain (-fine) into the raxml
// tool: -R ranks × -T threads serving ONE likelihood function. With
// -fine-transport chan the ranks are goroutines of this process; with
// -fine-transport tcp the master spawns -R-1 copies of its own binary
// in worker mode, each dialing back over the loopback TCP transport —
// real OS processes, the reproduction's mpirun.

// workerArgs is what a master hands down to every worker process it
// spawns, -fine and -grid alike: the kernel set, so all ranks compute
// with the same one, and — when the master records a CPU profile — a
// profile path of the worker's own, so the far half of a wire round
// trip can be read next to the near one.
type workerArgs struct {
	kernels    string
	cpuProfile string // the master's -cpuprofile ("" = none)
}

// argv returns the flags for the worker in `slot` (a -fine rank, a grid
// supervisor slot): its profile lands in <master's file>.worker<slot>. A
// respawned grid worker reuses its slot's name and overwrites it.
func (w workerArgs) argv(slot int) []string {
	args := []string{"-kernels", w.kernels}
	if w.cpuProfile != "" {
		args = append(args, "-cpuprofile", fmt.Sprintf("%s.worker%d", w.cpuProfile, slot))
	}
	return args
}

// RaxmlWorker runs one spawned fine-grain worker process: dial the
// master, then serve the rank's stripe until shutdown. Everything else
// — pattern stripe, model shape, thread count — arrives over the wire
// in the init frame, so a worker needs no access to the input files.
func RaxmlWorker(connect string, rank, ranks int, stderr io.Writer) error {
	tr, err := fabric.DialTCP(connect, rank, ranks)
	if err != nil {
		return fmt.Errorf("worker rank %d: %w", rank, err)
	}
	defer tr.Close()
	if err := finegrain.Serve(tr); err != nil {
		fmt.Fprintf(stderr, "raxml worker rank %d: %v\n", rank, err)
		return err
	}
	return nil
}

// withFineTransport hands fn the master-side transport of a fine run:
// nil for the in-proc channel grid (core builds the world itself), or
// an accepted TCP transport with ranks-1 spawned worker processes
// serving behind it. The kernels selection travels on each worker's
// argv so every rank of the grid computes with the same kernel set, and
// so does a CPU profile path when the master records one (workerArgs).
// Worker processes are reaped on return; if fn failed, the transport
// teardown unblocks them first.
func withFineTransport(transport string, ranks int, spawn workerArgs, stdout io.Writer, fn func(tr fabric.Transport) error) error {
	switch transport {
	case "", "chan":
		return fn(nil)
	case "tcp":
	default:
		return fmt.Errorf("unknown -fine-transport %q (want chan or tcp)", transport)
	}
	if ranks < 2 {
		return fn(nil) // a 1-rank grid has nobody to dial in
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary for worker spawn: %w", err)
	}
	tr, err := fabric.ListenTCP("127.0.0.1:0", ranks)
	if err != nil {
		return err
	}
	defer tr.Close()
	fmt.Fprintf(stdout, "fine grain: spawning %d worker processes (transport tcp, %s)\n", ranks-1, tr.Addr())
	procs := make([]*exec.Cmd, 0, ranks-1)
	waitErrs := make([]error, ranks-1)
	exited := make(chan int, ranks-1)
	for r := 1; r < ranks; r++ {
		cmd := exec.Command(exe, append(spawn.argv(r),
			"-fine-worker",
			"-fine-connect", tr.Addr(),
			"-fine-rank", strconv.Itoa(r),
			"-fine-ranks", strconv.Itoa(ranks),
		)...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			killAll(procs)
			drain(exited, len(procs))
			return fmt.Errorf("spawning worker rank %d: %w", r, err)
		}
		procs = append(procs, cmd)
		go func(i int, cmd *exec.Cmd) {
			waitErrs[i] = cmd.Wait()
			exited <- i
		}(len(procs)-1, cmd)
	}
	// Accept with a liveness watch: a worker that dies before dialing in
	// must fail the run immediately, not hang it (Accept would otherwise
	// wait for a hello that can never arrive).
	acceptCh := make(chan error, 1)
	go func() { acceptCh <- tr.Accept() }()
	reaped := 0
	select {
	case err := <-acceptCh:
		if err != nil {
			killAll(procs)
			drain(exited, len(procs))
			return fmt.Errorf("accepting workers: %w", err)
		}
	case i := <-exited:
		reaped++
		tr.Close() // unblocks Accept
		<-acceptCh
		killAll(procs)
		drain(exited, len(procs)-reaped)
		return fmt.Errorf("worker rank %d exited before connecting: %v", i+1, waitErrs[i])
	}
	ferr := fn(tr)
	// Tear the links down before reaping: a worker that missed its
	// shutdown frame (partial teardown after another rank died) still
	// exits cleanly on the closed connection.
	tr.Close()
	drain(exited, len(procs)-reaped)
	if ferr == nil {
		for r, werr := range waitErrs {
			if werr != nil {
				return fmt.Errorf("worker rank %d: %w", r+1, werr)
			}
		}
	}
	return ferr
}

// killAll terminates spawned workers; their Wait goroutines reap them.
func killAll(procs []*exec.Cmd) {
	for _, cmd := range procs {
		_ = cmd.Process.Kill()
	}
}

// drain consumes n exit notifications (each corresponds to one Wait
// goroutine finishing).
func drain(exited <-chan int, n int) {
	for i := 0; i < n; i++ {
		<-exited
	}
}
