package cli

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"

	"raxml/internal/fabric"
)

// This file wires the distributed fine grain (-fine) into the raxml
// tool: -R ranks × -T threads serving ONE likelihood function. With
// -fine-transport chan the ranks are goroutines of this process; with
// -fine-transport tcp the master spawns -R-1 copies of its own binary
// as grid workers, each dialing back over a loopback TCP link — real
// OS processes, the reproduction's mpirun.

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

// withFineLinks hands fn the master-side links of a fine run: nil for
// the in-proc grid (core builds its LinkPairs itself), or links[r-1] to
// the spawned worker process of rank r. The workers are the grid's
// (-grid-worker -grid-connect), and a link's rank is the spawn slot of
// the PID its hello announces, not its accept order — so rank r's
// profile is <file>.worker<r>. The kernels selection travels on each
// worker's argv so every rank of the grid computes with the same kernel
// set, and so does a CPU profile path when the master records one
// (workerArgs). fn's pool releases the workers; closing their links
// then ends them, and they are reaped before this returns.
func withFineLinks(transport string, ranks int, spawn workerArgs, stdout io.Writer, fn func(links []fabric.Link) error) error {
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
	ln, err := fabric.ListenStar("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(stdout, "fine grain: spawning %d worker processes (transport tcp, %s)\n", ranks-1, ln.Addr())
	procs := make([]*exec.Cmd, 0, ranks-1)
	rankOf := make(map[int]int, ranks-1) // pid -> rank
	waitErrs := make([]error, ranks-1)
	exited := make(chan int, ranks-1)
	for r := 1; r < ranks; r++ {
		cmd := exec.Command(exe, append(spawn.argv(r), "-grid-worker", "-grid-connect", ln.Addr())...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			killAll(procs)
			drain(exited, len(procs))
			return fmt.Errorf("spawning worker rank %d: %w", r, err)
		}
		procs = append(procs, cmd)
		rankOf[cmd.Process.Pid] = r
		go func(i int) {
			waitErrs[i] = cmd.Wait()
			exited <- i
		}(len(procs) - 1)
	}
	links := make([]fabric.Link, ranks-1)
	closeLinks := func() {
		for _, l := range links {
			if l != nil {
				l.Close()
			}
		}
	}
	// Accept with a liveness watch: a worker that dies before dialing in
	// must fail the run immediately, not hang it (its hello can never
	// arrive).
	accepted := make(chan struct{})
	go func() {
		acceptRanks(ln, rankOf, links)
		close(accepted)
	}()
	select {
	case <-accepted:
	case i := <-exited:
		ln.Close() // unblocks AcceptLink
		<-accepted
		closeLinks()
		killAll(procs)
		drain(exited, len(procs)-1)
		return fmt.Errorf("worker rank %d exited before connecting: %v", i+1, waitErrs[i])
	}
	ferr := fn(links)
	closeLinks()
	drain(exited, len(procs))
	if ferr == nil {
		for r, werr := range waitErrs {
			if werr != nil {
				return fmt.Errorf("worker rank %d: %w", r+1, werr)
			}
		}
	}
	return ferr
}

// acceptRanks fills links with one accepted link per spawned worker,
// each at the rank its announced PID was spawned for, until every rank
// has one or the listener closes. A dialer that is not one of ours — a
// failed hello, an unknown or repeated PID — is dropped.
func acceptRanks(ln *fabric.StarListener, rankOf map[int]int, links []fabric.Link) {
	for n := 0; n < len(links); {
		link, pid, err := ln.AcceptLink()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			continue
		}
		if r, ok := rankOf[pid]; ok && links[r-1] == nil {
			links[r-1] = link
			n++
		} else {
			link.Close()
		}
	}
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
