package grid

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/finegrain"
)

// ProbeTimeout bounds the pong wait of a liveness probe (lease-time or
// heartbeat): a worker that accepted the ping but never answers is as
// dead as one with a broken link. Chaos tests shrink it.
var ProbeTimeout = 10 * time.Second

// DefaultHeartbeatInterval is the fleet's background liveness sweep
// cadence — frequent enough that a SIGKILLed idle worker is evicted
// well before a job would otherwise discover the corpse at lease time.
const DefaultHeartbeatInterval = 3 * time.Second

// Fleet is the grid's worker membership: every admitted rank, its link,
// and whether it is idle (in the free pool), leased to a job, or dead.
// Workers join at start-up or any time later (late joiners simply enter
// the free pool), leave by dying (SIGKILL, broken link) and are then
// detected either by the probe at lease time or by a transport error
// mid-job.
//
// Fleet identity is flat: worker ids are assigned in admission order
// and never reused. A worker's *job-local* rank — its position in some
// job's finegrain pool — exists only for the duration of one lease.
type Fleet struct {
	tracer *Tracer

	// LinkWrapper, when set before workers are admitted, wraps every
	// admitted link — the hook chaos runs use to interpose a seeded
	// fabric.FaultLink per worker. The wrapped link is what the fleet
	// probes, leases and kills; the worker id lets the wrapper derive a
	// per-worker fault seed.
	LinkWrapper func(workerID int, l fabric.Link) fabric.Link

	mu      sync.Mutex
	cond    *sync.Cond // signaled on Admit, for WaitAlive
	workers map[int]*Worker
	free    []int
	nextID  int

	hbStop chan struct{}
	hbDone chan struct{}

	heartbeats atomic.Int64 // liveness probes sent by the background sweep
	evicted    atomic.Int64 // workers the sweep declared dead
}

// Worker is one fleet member.
type Worker struct {
	// ID is the fleet-wide identity (admission order).
	ID int
	// PID is the worker's OS process id as announced in its hello frame
	// (0 for in-proc workers) — what lets chaos runs SIGKILL a real rank.
	PID int

	link  fabric.Link
	jobID string
	dead  bool
}

// Link returns the master end of the worker's link, the leaseholder's
// to post over until the lease is returned.
func (w *Worker) Link() fabric.Link { return w.link }

// NewFleet creates an empty fleet.
func NewFleet(tracer *Tracer) *Fleet {
	f := &Fleet{tracer: tracer, workers: make(map[int]*Worker)}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Admit adds a worker reachable over link to the free pool and returns
// it. Safe to call at any time — late joiners admitted mid-run are
// leased to the next job attempt that asks.
func (f *Fleet) Admit(link fabric.Link, pid int) *Worker {
	f.mu.Lock()
	id := f.nextID
	f.nextID++
	if f.LinkWrapper != nil {
		link = f.LinkWrapper(id, link)
	}
	w := &Worker{ID: id, PID: pid, link: link}
	f.workers[w.ID] = w
	f.free = append(f.free, w.ID)
	f.cond.Broadcast()
	f.mu.Unlock()
	f.tracer.Event("admit", "", map[string]any{"worker": w.ID, "pid": pid})
	return w
}

// WaitAlive blocks until at least n workers are alive (admitted and not
// known dead) or timeout passes, reporting whether the quorum arrived.
// It is how a master that just spawned its workers waits for them to
// dial in without a sleep-poll loop.
func (f *Fleet) WaitAlive(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	// The cond has no timed wait; a timer broadcast wakes the waiters so
	// they can notice the deadline passed.
	wake := time.AfterFunc(timeout, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer wake.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		alive := 0
		for _, w := range f.workers {
			if !w.dead {
				alive++
			}
		}
		if alive >= n {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		f.cond.Wait()
	}
}

// SpawnLocal admits n in-proc workers, each a goroutine serving
// finegrain sessions over its end of a LinkPair — the chan-transport
// fleet used by tests and single-process grid runs.
func (f *Fleet) SpawnLocal(n int) {
	for i := 0; i < n; i++ {
		m, w := fabric.LinkPair()
		go func() {
			// Close on exit so a worker that dies of a protocol desync
			// severs the pair — the master sees a dead link, not silence.
			defer w.Close()
			finegrain.ServeSessions(w)
		}()
		f.Admit(m, 0)
	}
}

// AcceptFrom admits TCP workers as they dial the star listener, until
// the listener closes. It returns immediately; admission runs in a
// background goroutine (the late-join path). A single bad dialer — a
// hello timeout, a garbage hello — is skipped, not fatal: only the
// listener's own close ends admission.
func (f *Fleet) AcceptFrom(ln *fabric.StarListener) {
	go func() {
		for {
			link, pid, err := ln.AcceptLink()
			if err != nil {
				if errors.Is(err, net.ErrClosed) {
					return
				}
				continue
			}
			f.Admit(link, pid)
		}
	}()
}

// NumAlive counts admitted workers not known dead.
func (f *Fleet) NumAlive() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, w := range f.workers {
		if !w.dead {
			n++
		}
	}
	return n
}

// NumFree counts idle workers.
func (f *Fleet) NumFree() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.free)
}

// Stats reports membership counts for metrics: admitted (lifetime),
// alive, free, leased (alive minus free) and dead.
func (f *Fleet) Stats() (admitted, alive, free, leased, dead int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	admitted = len(f.workers)
	for _, w := range f.workers {
		if !w.dead {
			alive++
		}
	}
	free = len(f.free)
	return admitted, alive, free, alive - free, admitted - alive
}

// Lease takes up to want workers from the free pool for jobID, probing
// each candidate's liveness (TagPing/TagPong) so a worker that died
// while idle is discarded here rather than poisoning the job's pool.
// It returns fewer than want — possibly none — when the free pool runs
// short; a job always proceeds with whatever it got (the master rank
// alone, at minimum).
func (f *Fleet) Lease(jobID string, want int) []*Worker {
	var out []*Worker
	for len(out) < want {
		f.mu.Lock()
		if len(f.free) == 0 {
			f.mu.Unlock()
			break
		}
		id := f.free[0]
		f.free = f.free[1:]
		w := f.workers[id]
		f.mu.Unlock()
		if !f.probe(w) {
			f.markDead(w, "probe")
			continue
		}
		f.mu.Lock()
		w.jobID = jobID
		f.mu.Unlock()
		out = append(out, w)
	}
	if len(out) > 0 {
		ids := make([]int, len(out))
		for i, w := range out {
			ids[i] = w.ID
		}
		f.tracer.Event("lease", jobID, map[string]any{"workers": ids})
	}
	return out
}

// probe checks an idle worker end-to-end: ping, expect pong, bounded by
// ProbeTimeout — a worker that accepted the ping but never answers
// (wedged, straggling past any useful bound) fails the probe like one
// with a broken link.
func (f *Fleet) probe(w *Worker) bool {
	if err := w.link.Send(finegrain.TagPing, nil); err != nil {
		return false
	}
	if ProbeTimeout > 0 {
		fabric.SetLinkRecvDeadline(w.link, time.Now().Add(ProbeTimeout))
		defer fabric.SetLinkRecvDeadline(w.link, time.Time{})
	}
	tag, _, err := w.link.Recv()
	return err == nil && tag == finegrain.TagPong
}

// StartHeartbeats begins a background liveness sweep: every interval,
// each currently-idle worker is probed (ping/pong) and non-responders
// are evicted — so dead idle workers leave the pool within an interval
// or two instead of surfacing as failed probes at lease time. Leased
// workers are never touched; their liveness is the job's dispatch
// deadline. Call StopHeartbeats before Shutdown.
func (f *Fleet) StartHeartbeats(interval time.Duration) {
	if interval <= 0 || f.hbStop != nil {
		return
	}
	f.hbStop = make(chan struct{})
	f.hbDone = make(chan struct{})
	go func() {
		defer close(f.hbDone)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-f.hbStop:
				return
			case <-tick.C:
				f.sweep()
			}
		}
	}()
}

// StopHeartbeats ends the background sweep and waits for it to finish,
// so no probe races the shutdown of the links it would use.
func (f *Fleet) StopHeartbeats() {
	if f.hbStop == nil {
		return
	}
	close(f.hbStop)
	<-f.hbDone
	f.hbStop = nil
}

// sweep probes each currently-free worker once, popping one at a time
// so concurrent Lease calls interleave with the sweep instead of
// finding an emptied pool.
func (f *Fleet) sweep() {
	f.mu.Lock()
	n := len(f.free)
	f.mu.Unlock()
	for i := 0; i < n; i++ {
		f.mu.Lock()
		if len(f.free) == 0 {
			f.mu.Unlock()
			return
		}
		id := f.free[0]
		f.free = f.free[1:]
		w := f.workers[id]
		f.mu.Unlock()
		f.heartbeats.Add(1)
		if f.probe(w) {
			f.release(w)
		} else {
			f.evicted.Add(1)
			f.markDead(w, "heartbeat")
		}
	}
}

// Heartbeats reports the number of liveness probes the background sweep
// has sent (for metrics).
func (f *Fleet) Heartbeats() int64 { return f.heartbeats.Load() }

// Evicted reports the number of workers the background sweep declared
// dead (for metrics).
func (f *Fleet) Evicted() int64 { return f.evicted.Load() }

// Return ends a lease: workers whose job-local rank appears in dead
// (1-based, as reported by finegrain.Pool.Release) are marked dead, the
// rest go back to the free pool. ws must be in job-local rank order
// (rank r = ws[r-1]), as built by the lease.
func (f *Fleet) Return(ws []*Worker, dead []int) {
	deadSet := make(map[int]bool, len(dead))
	for _, r := range dead {
		deadSet[r] = true
	}
	for i, w := range ws {
		if deadSet[i+1] {
			f.markDead(w, "release")
		} else {
			f.release(w)
		}
	}
}

// ReleaseAll ends a lease when no pool exists to drain it (pool
// construction failed partway): it runs the release handshake with
// each worker directly, marking non-ackers dead.
func (f *Fleet) ReleaseAll(ws []*Worker) {
	for _, w := range ws {
		if finegrain.ReleaseLink(w.link) {
			f.release(w)
		} else {
			f.markDead(w, "release")
		}
	}
}

func (f *Fleet) release(w *Worker) {
	f.mu.Lock()
	w.jobID = ""
	if !w.dead {
		f.free = append(f.free, w.ID)
	}
	f.mu.Unlock()
}

func (f *Fleet) markDead(w *Worker, how string) {
	f.mu.Lock()
	already := w.dead
	w.dead = true
	w.jobID = ""
	for i, id := range f.free {
		if id == w.ID {
			f.free = append(f.free[:i], f.free[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
	if !already {
		w.link.Close()
		f.tracer.Event("rank-dead", "", map[string]any{"worker": w.ID, "via": how})
	}
}

// Kill terminates one worker the way a failing node would: a real
// process (PID > 0) gets SIGKILL and its master-side link is left alone
// so the death surfaces as a transport error; an in-proc worker has its
// link severed, which kills both ends. Victims leased to preferJob are
// chosen first (so a chaos run hits the job it is watching), then any
// leased worker, then a free one. Reports the victim id, or ok=false
// when the fleet has no live worker to kill.
func (f *Fleet) Kill(preferJob string) (victim int, ok bool) {
	// Rank candidates: leased to preferJob > leased to any job > idle;
	// ties break to the lowest id, keeping chaos runs reproducible.
	class := func(w *Worker) int {
		switch {
		case preferJob != "" && w.jobID == preferJob:
			return 2
		case w.jobID != "":
			return 1
		}
		return 0
	}
	f.mu.Lock()
	var w *Worker
	for id := 0; id < f.nextID; id++ {
		cand := f.workers[id]
		if cand == nil || cand.dead {
			continue
		}
		if w == nil || class(cand) > class(w) {
			w = cand
		}
	}
	f.mu.Unlock()
	if w == nil {
		return 0, false
	}
	f.tracer.Event("kill", w.jobID, map[string]any{"worker": w.ID, "pid": w.PID})
	if w.PID > 0 && w.PID != os.Getpid() {
		if p, err := os.FindProcess(w.PID); err == nil {
			p.Kill()
		}
	} else {
		w.link.Close()
	}
	return w.ID, true
}

// Shutdown terminates every live worker (idle or not) and closes their
// links. Called once, after the scheduler drains.
func (f *Fleet) Shutdown() {
	f.mu.Lock()
	ws := make([]*Worker, 0, len(f.workers))
	for _, w := range f.workers {
		if !w.dead {
			ws = append(ws, w)
		}
	}
	f.mu.Unlock()
	for _, w := range ws {
		w.link.Send(finegrain.TagShutdown, nil)
		w.link.Close()
	}
}

// String summarizes membership for logs.
func (f *Fleet) String() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	alive := 0
	for _, w := range f.workers {
		if !w.dead {
			alive++
		}
	}
	return fmt.Sprintf("fleet{admitted: %d, alive: %d, free: %d}", len(f.workers), alive, len(f.free))
}
