// Package grid is the coarse×fine orchestrator over the fabric fleet:
// the reproduction's answer to running the paper's WHOLE comprehensive
// analysis — many ML starts, rapid-bootstrap replicate streams,
// bootstopping convergence checks, consensus — as one dependency graph
// over however many ranks happen to be alive.
//
// The paper's hybrid fixes the partition up front: p coarse MPI ranks,
// each fanning one likelihood over t Pthreads, no rank ever changing
// jobs. The grid makes that partition elastic. Coarse work items are
// DAG jobs; the scheduler runs ready jobs concurrently and leases each
// one a share of the free worker ranks for the duration of one attempt.
// A leased rank serves the job's private finegrain.Pool (the fine
// grain), is drained by a release handshake when the attempt ends, and
// returns to the free pool for the next job — so the coarse/fine split
// R = sum of per-job k_i re-forms continuously as jobs start, finish,
// and fail.
//
// Fault tolerance is checkpoint/re-stripe: jobs checkpoint replicate
// state (trees + RNG stream positions) at replicate boundaries into the
// grid's store; when a rank dies mid-job — detected as a typed
// RankDeadError surfacing from the job's pool — the job's remaining
// workers are drained, the dead rank is dropped from the fleet, and the
// job re-stripes a fresh pool over survivors (possibly plus late
// joiners) and resumes from its last checkpoint. Per-job RNG streams
// make results independent of lease shapes and failure timing.
//
// See docs/grid-scheduler.md for the DAG model, the rank-lease
// protocol, the checkpoint format, and failure/rejoin semantics.
package grid

import (
	"errors"
	"fmt"
	"sync"
)

// JobState is a job's lifecycle position.
type JobState int

const (
	// Pending jobs wait for dependencies (or a scheduler slot).
	Pending JobState = iota
	// Running jobs are executing in a goroutine.
	Running
	// Done jobs completed successfully.
	Done
	// Failed jobs returned an error or lost a dependency.
	Failed
)

func (s JobState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Job is one coarse DAG node: an ML start, a bootstrap replicate batch,
// a convergence check, a consensus build.
type Job struct {
	// ID names the job ("ml/3", "bs/1", "consensus"). Unique.
	ID string
	// Deps are job IDs that must be Done before this job starts. They
	// must already be added when this job is added.
	Deps []string
	// Run executes the job. It may lease fine-grain workers through
	// ctx.Elastic, checkpoint through ctx.Save, and extend the DAG
	// through ctx.Add (how bootstopping grows replicate rounds until
	// convergence).
	Run func(ctx *JobContext) error

	state JobState
	err   error
}

// Config parameterizes a Grid.
type Config struct {
	// Fleet supplies fine-grain workers. nil runs every job
	// master-local.
	Fleet *Fleet
	// Tracer records the event trace (nil: silent).
	Tracer *Tracer
	// Concurrency caps concurrently running jobs (default 2 — the
	// coarse grain; each job's fine grain is its lease).
	Concurrency int
	// ThreadsPerRank is t of the R×t grid: threads in each leased
	// rank's crew and in the job-local crew (default 1).
	ThreadsPerRank int
	// MaxLeasedRanks caps the grid's total concurrently leased workers
	// (0: unlimited). This is the admission-control hook: a server
	// running several grids over one shared fleet gives each a slice of
	// the rank budget so no tenant starves the others.
	MaxLeasedRanks int
	// Checkpoints pre-seeds the checkpoint store (job ID → encoded
	// state): a drained-and-restarted run resumes its bootstrap streams
	// where the previous process left them. The map is copied.
	Checkpoints map[string][]byte
	// OnCheckpoint, when set, observes every checkpoint save with its
	// global ordinal — the chaos hook (kill a rank at the Kth
	// checkpoint).
	OnCheckpoint func(job string, ordinal int)
}

// ErrCanceled marks jobs terminated by Grid.Cancel. Job bodies return
// it (wrapped or bare) from their cooperative cancellation points;
// pending jobs get it directly.
var ErrCanceled = errors.New("grid: canceled")

// Grid schedules a job DAG over the fleet.
type Grid struct {
	cfg Config

	mu          sync.Mutex
	cond        *sync.Cond
	jobs        map[string]*Job
	order       []string
	running     int
	leased      int
	canceled    bool
	cancelCh    chan struct{}
	checkpoints map[string][]byte
	ckptOrd     int
}

// New creates an empty grid.
func New(cfg Config) *Grid {
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 2
	}
	if cfg.ThreadsPerRank < 1 {
		cfg.ThreadsPerRank = 1
	}
	g := &Grid{
		cfg:         cfg,
		jobs:        make(map[string]*Job),
		cancelCh:    make(chan struct{}),
		checkpoints: make(map[string][]byte),
	}
	for id, cp := range cfg.Checkpoints {
		g.checkpoints[id] = append([]byte(nil), cp...)
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Cancel requests cooperative cancellation: jobs not yet started fail
// with ErrCanceled, running jobs observe JobContext.Canceled at their
// next checkpoint boundary and unwind (leases drain through the normal
// release path). Safe to call at any time, idempotent.
func (g *Grid) Cancel() {
	g.mu.Lock()
	if !g.canceled {
		g.canceled = true
		close(g.cancelCh)
		g.cfg.Tracer.Event("cancel", "", nil)
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// Canceled reports whether Cancel has been called.
func (g *Grid) Canceled() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.canceled
}

// Checkpoints snapshots the checkpoint store — what a draining server
// persists so a restart can seed a successor grid via Config.Checkpoints.
func (g *Grid) Checkpoints() map[string][]byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string][]byte, len(g.checkpoints))
	for id, cp := range g.checkpoints {
		out[id] = append([]byte(nil), cp...)
	}
	return out
}

// addLeased adjusts the grid's leased-rank count (admission accounting
// for Config.MaxLeasedRanks).
func (g *Grid) addLeased(n int) {
	g.mu.Lock()
	g.leased += n
	g.mu.Unlock()
}

// leaseBudget returns how many more ranks the grid may lease right now
// (-1: unlimited).
func (g *Grid) leaseBudget() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cfg.MaxLeasedRanks <= 0 {
		return -1
	}
	b := g.cfg.MaxLeasedRanks - g.leased
	if b < 0 {
		b = 0
	}
	return b
}

// Add inserts a job. Dependencies must already exist; IDs must be
// fresh. Safe during Run (jobs add follow-up jobs through their ctx).
func (g *Grid) Add(j *Job) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addLocked(j)
}

func (g *Grid) addLocked(j *Job) error {
	if j.ID == "" || j.Run == nil {
		return fmt.Errorf("grid: job needs an ID and a Run")
	}
	if _, dup := g.jobs[j.ID]; dup {
		return fmt.Errorf("grid: duplicate job %q", j.ID)
	}
	for _, d := range j.Deps {
		if _, ok := g.jobs[d]; !ok {
			return fmt.Errorf("grid: job %q depends on unknown job %q", j.ID, d)
		}
	}
	j.state = Pending
	g.jobs[j.ID] = j
	g.order = append(g.order, j.ID)
	g.cfg.Tracer.Event("job-add", j.ID, map[string]any{"deps": j.Deps})
	g.cond.Broadcast()
	return nil
}

// State reports a job's state and error (nil error unless Failed).
func (g *Grid) State(id string) (JobState, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.jobs[id]
	if !ok {
		return Failed, fmt.Errorf("grid: unknown job %q", id)
	}
	return j.state, j.err
}

// Run drives the DAG to completion: ready jobs start in goroutines (at
// most Concurrency at once, in Add order — deterministic given
// deterministic job bodies), jobs whose dependency failed are failed in
// cascade, and Run returns when no job is pending or running. The
// returned error joins every job failure.
func (g *Grid) Run() error {
	g.mu.Lock()
	for {
		progressed := false
		for _, id := range g.order {
			j := g.jobs[id]
			if j.state != Pending {
				continue
			}
			if g.canceled {
				j.state = Failed
				j.err = ErrCanceled
				g.cfg.Tracer.Event("job-failed", j.ID, map[string]any{"error": j.err.Error()})
				progressed = true
				continue
			}
			ready := true
			for _, d := range j.Deps {
				switch g.jobs[d].state {
				case Failed:
					j.state = Failed
					j.err = fmt.Errorf("grid: dependency %q failed", d)
					g.cfg.Tracer.Event("job-failed", j.ID, map[string]any{"error": j.err.Error()})
					progressed = true
					ready = false
				case Done:
				default:
					ready = false
				}
				if !ready {
					break
				}
			}
			if !ready || j.state != Pending || g.running >= g.cfg.Concurrency {
				continue
			}
			j.state = Running
			g.running++
			progressed = true
			g.cfg.Tracer.Event("job-start", j.ID, nil)
			go g.runJob(j)
		}
		if g.running > 0 {
			g.cond.Wait()
			continue
		}
		if progressed {
			continue // cascaded failures may have unblocked (or doomed) more
		}
		// Nothing running, nothing startable: pending leftovers form a
		// dependency cycle.
		stuck := false
		for _, id := range g.order {
			if j := g.jobs[id]; j.state == Pending {
				j.state = Failed
				j.err = fmt.Errorf("grid: job %q unreachable (dependency cycle)", id)
				g.cfg.Tracer.Event("job-failed", j.ID, map[string]any{"error": j.err.Error()})
				stuck = true
			}
		}
		if !stuck {
			break
		}
	}
	var errs []error
	for _, id := range g.order {
		if j := g.jobs[id]; j.state == Failed {
			errs = append(errs, fmt.Errorf("%s: %w", j.ID, j.err))
		}
	}
	g.mu.Unlock()
	return errors.Join(errs...)
}

func (g *Grid) runJob(j *Job) {
	err := j.Run(&JobContext{g: g, job: j})
	g.mu.Lock()
	if err != nil {
		j.state = Failed
		j.err = err
		g.cfg.Tracer.Event("job-failed", j.ID, map[string]any{"error": err.Error()})
	} else {
		j.state = Done
		g.cfg.Tracer.Event("job-done", j.ID, nil)
	}
	g.running--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// JobContext is a running job's handle on the grid.
type JobContext struct {
	g   *Grid
	job *Job
}

// ID returns the running job's id.
func (c *JobContext) ID() string { return c.job.ID }

// Canceled reports whether the grid was canceled — the cooperative
// cancellation point job bodies poll at checkpoint boundaries: a
// canceled job saves its state and returns ErrCanceled, so its lease
// drains through the normal release path and a successor grid can
// resume from the checkpoint.
func (c *JobContext) Canceled() bool { return c.g.Canceled() }

// Add extends the DAG from inside a job — the bootstop pattern: a
// convergence check that fails its test adds the next replicate round
// and its follow-up check.
func (c *JobContext) Add(j *Job) error { return c.g.Add(j) }

// Save stores the job's checkpoint — the replicate-boundary state that
// a re-striped resume restarts from — replacing any previous one, and
// notifies the chaos hook.
func (c *JobContext) Save(data []byte) {
	c.g.mu.Lock()
	c.g.checkpoints[c.job.ID] = append([]byte(nil), data...)
	c.g.ckptOrd++
	ord := c.g.ckptOrd
	c.g.mu.Unlock()
	c.g.cfg.Tracer.Event("checkpoint", c.job.ID, map[string]any{"bytes": len(data), "ordinal": ord})
	if c.g.cfg.OnCheckpoint != nil {
		c.g.cfg.OnCheckpoint(c.job.ID, ord)
	}
}

// Load returns the job's last checkpoint (nil before the first Save).
func (c *JobContext) Load() []byte {
	c.g.mu.Lock()
	defer c.g.mu.Unlock()
	cp := c.g.checkpoints[c.job.ID]
	if cp == nil {
		return nil
	}
	return append([]byte(nil), cp...)
}
