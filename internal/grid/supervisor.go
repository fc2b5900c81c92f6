package grid

import (
	"fmt"
	"math/rand/v2"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"
)

// Supervisor keeps a fixed set of worker-process slots populated: when
// a worker exits without being asked to (SIGKILLed by a chaos run, OOM
// killed, crashed on a corrupt frame), its slot respawns a replacement
// after a capped exponential backoff with jitter. The replacement dials
// the master like any late joiner and enters the fleet's free pool — so
// a long analysis recovers its parallelism after a failure instead of
// limping on with fewer ranks forever.
//
// The division of labour with Fleet: the fleet tracks link-level
// membership (who is admitted, leased, dead), the supervisor tracks
// process-level capacity (how many worker processes should exist). They
// meet only through the workers themselves dialing in.

// Backoff parameters for respawning a crashed slot. A slot that keeps
// dying backs off exponentially up to the cap; a slot whose process
// stayed healthy past respawnHealthy has its backoff reset, so a single
// crash long after the last one costs only the base delay.
var (
	respawnBackoffMin = 250 * time.Millisecond
	respawnBackoffMax = 10 * time.Second
	respawnHealthy    = 30 * time.Second
)

// Supervisor respawns worker processes that die unexpectedly.
type Supervisor struct {
	spawn func(slot int) (*exec.Cmd, error)

	mu    sync.Mutex
	procs []*exec.Cmd // current process per slot (nil between respawns)

	// stopping is closed once the supervisor stops respawning. The close
	// happens under mu, so a spawn recording its process under mu either
	// got there first (the kill sweep finds it) or sees the close; a slot
	// sleeping through its respawn backoff wakes on it.
	stopping chan struct{}

	wg       sync.WaitGroup
	respawns atomic.Int64
}

// NewSupervisor starts n worker slots, spawning each with spawn (which
// must Start the command — or return one ready to Start; the supervisor
// starts it if needed — and have the worker dial the master itself).
// Each slot's process is watched by a goroutine that respawns it on
// unexpected exit. Stop kills everything.
func NewSupervisor(n int, spawn func(slot int) (*exec.Cmd, error)) (*Supervisor, error) {
	s := &Supervisor{spawn: spawn, procs: make([]*exec.Cmd, n), stopping: make(chan struct{})}
	for i := 0; i < n; i++ {
		cmd, err := s.spawnSlot(i)
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("grid: spawn worker %d: %w", i, err)
		}
		s.wg.Add(1)
		go s.watch(i, cmd)
	}
	return s, nil
}

// errStopping reports a spawn refused because Stop is in progress.
var errStopping = fmt.Errorf("grid: supervisor stopping")

// spawnSlot launches one worker process and records it in its slot. A
// spawn that completes after Stop began is killed and refused here —
// under the same lock Stop uses — so a slot sleeping through its
// backoff when Stop runs cannot repopulate itself behind the kill
// sweep.
func (s *Supervisor) spawnSlot(slot int) (*exec.Cmd, error) {
	if s.isStopping() {
		return nil, errStopping
	}
	cmd, err := s.spawn(slot)
	if err != nil {
		return nil, err
	}
	if cmd.Process == nil {
		if err := cmd.Start(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	if s.isStopping() {
		s.mu.Unlock()
		cmd.Process.Kill()
		cmd.Wait()
		return nil, errStopping
	}
	s.procs[slot] = cmd
	s.mu.Unlock()
	return cmd, nil
}

// watch is the per-slot loop: wait for the process to exit, and unless
// the supervisor is stopping, respawn it after a backoff. Only this
// goroutine calls cmd.Wait — Stop kills via the Process handle and lets
// the wait here reap the child.
func (s *Supervisor) watch(slot int, cmd *exec.Cmd) {
	defer s.wg.Done()
	backoff := respawnBackoffMin
	for {
		born := time.Now()
		cmd.Wait()
		s.mu.Lock()
		s.procs[slot] = nil
		s.mu.Unlock()
		if s.isStopping() {
			return
		}
		if time.Since(born) >= respawnHealthy {
			backoff = respawnBackoffMin
		}
		// Full jitter: a fleet of slots killed together must not respawn
		// in lockstep and stampede the master's accept loop.
		wake := time.NewTimer(backoff/2 + rand.N(backoff/2+1))
		select {
		case <-wake.C:
		case <-s.stopping:
			wake.Stop()
			return
		}
		if backoff *= 2; backoff > respawnBackoffMax {
			backoff = respawnBackoffMax
		}
		next, err := s.spawnSlot(slot)
		if err != nil {
			if err == errStopping {
				return
			}
			// Can't spawn (binary gone, fork limit): retry on the next
			// backoff rather than abandoning the slot.
			continue
		}
		s.respawns.Add(1)
		cmd = next
	}
}

// Respawns reports how many replacement workers the supervisor has
// spawned (for metrics; the initial population does not count).
func (s *Supervisor) Respawns() int64 { return s.respawns.Load() }

// StopRespawning ends the supervision without touching the processes:
// from now on an exit is final, whoever caused it. Call it before the
// workers are told to shut down — a worker that obeys its shutdown frame
// exits on its own, and to a supervisor still supervising that is a
// crash to back off from and replace. Idempotent.
func (s *Supervisor) StopRespawning() {
	s.mu.Lock()
	if !s.isStopping() {
		close(s.stopping)
	}
	s.mu.Unlock()
}

func (s *Supervisor) isStopping() bool {
	select {
	case <-s.stopping:
		return true
	default:
		return false
	}
}

// Stop kills every live worker process and waits for the slot watchers
// to exit. Idempotent.
func (s *Supervisor) Stop() { s.StopAfter(0) }

// StopAfter is Stop with a grace period: from now on no slot respawns,
// the processes get up to grace to exit on their own — a worker that was
// sent its shutdown frame finishes what it flushes on exit, a CPU
// profile for one — and whatever is still alive then is killed.
func (s *Supervisor) StopAfter(grace time.Duration) {
	s.StopRespawning()
	if grace > 0 {
		exited := make(chan struct{})
		go func() { s.wg.Wait(); close(exited) }()
		select {
		case <-exited:
		case <-time.After(grace):
		}
	}
	s.mu.Lock()
	procs := make([]*exec.Cmd, len(s.procs))
	copy(procs, s.procs)
	s.mu.Unlock()
	for _, cmd := range procs {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
	s.wg.Wait()
}
