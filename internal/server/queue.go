package server

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"raxml/internal/core"
	"raxml/internal/grid"
	"raxml/internal/search"
)

// Admission-control errors, mapped to HTTP statuses by the API layer.
var (
	// ErrQueueFull rejects a tenant whose queue is at its cap (429).
	ErrQueueFull = errors.New("server: tenant queue full")
	// ErrDraining rejects submissions during graceful shutdown (503).
	ErrDraining = errors.New("server: draining")
)

// tenantQ is one API key's admission state: a FIFO queue of its own
// runs plus its running count. Fairness across tenants is round-robin
// over tenants with queued work (see scheduleLocked), so a tenant
// flooding the queue only ever delays itself.
type tenantQ struct {
	key     string
	queue   []*Run
	running int
}

// enqueue admits a run into its tenant's queue, creating the tenant on
// first sight. Caller holds s.mu.
func (s *Server) enqueueLocked(run *Run) error {
	if s.draining {
		return ErrDraining
	}
	t := s.tenants[run.Tenant]
	if t == nil {
		t = &tenantQ{key: run.Tenant}
		s.tenants[run.Tenant] = t
		s.tenantOrder = append(s.tenantOrder, run.Tenant)
	}
	if len(t.queue) >= s.cfg.MaxQueuedPerTenant {
		return ErrQueueFull
	}
	t.queue = append(t.queue, run)
	run.log.event("queued", map[string]any{
		"run": run.ID, "tenant": run.Tenant, "position": len(t.queue),
	})
	return nil
}

// scheduleLocked starts as many queued runs as admission allows: global
// concurrency first, then per-tenant running caps, picking tenants
// round-robin from a rotating cursor so contending tenants alternate
// (fair share) while each tenant's own queue stays FIFO. Caller holds
// s.mu.
func (s *Server) scheduleLocked() {
	if s.draining {
		return
	}
	for s.runningTotal < s.cfg.MaxRunning {
		started := false
		for i := 0; i < len(s.tenantOrder); i++ {
			t := s.tenants[s.tenantOrder[(s.rrNext+i)%len(s.tenantOrder)]]
			if len(t.queue) == 0 || t.running >= s.cfg.MaxRunningPerTenant {
				continue
			}
			run := t.queue[0]
			t.queue = t.queue[1:]
			t.running++
			s.runningTotal++
			s.rrNext = (s.rrNext + i + 1) % len(s.tenantOrder)
			run.mu.Lock()
			run.state = StateRunning
			run.started = time.Now()
			run.mu.Unlock()
			s.wg.Add(1)
			go s.runOne(run, t)
			started = true
			break
		}
		if !started {
			return
		}
	}
}

// runOne drives a single run to a terminal state (or back to queued
// when a drain interrupts it), then frees its admission slot.
func (s *Server) runOne(run *Run, t *tenantQ) {
	defer s.wg.Done()
	run.log.event("run-start", map[string]any{"run": run.ID})
	err := s.execute(run)

	s.mu.Lock()
	t.running--
	s.runningTotal--
	s.activeRuns.Delete(run.ID)
	run.mu.Lock()
	run.grid = nil
	run.finished = time.Now()
	switch {
	case err == nil:
		run.state = StateDone
		s.metrics.runsDone.Add(1)
	case run.canceledByUser:
		run.state = StateCanceled
		s.metrics.runsCanceled.Add(1)
	case s.draining && errors.Is(err, grid.ErrCanceled):
		// Drain interrupted the run at a checkpoint boundary: it goes
		// back to the front of its tenant queue (it was already running)
		// and is persisted for the next server process.
		run.state = StateQueued
		run.finished = time.Time{}
		t.queue = append([]*Run{run}, t.queue...)
	default:
		run.state = StateFailed
		run.errMsg = err.Error()
		s.metrics.runsFailed.Add(1)
	}
	state := run.state
	// Capture the log while holding run.mu: once the run is terminal, a
	// resubmission (Submit) may swap run.log for a fresh one; the
	// terminal events below belong to this attempt's log.
	lg := run.log
	run.mu.Unlock()
	s.scheduleLocked()
	s.mu.Unlock()

	switch state {
	case StateDone:
		lg.event("run-done", map[string]any{"run": run.ID})
		lg.close()
	case StateCanceled:
		lg.event("run-canceled", map[string]any{"run": run.ID})
		lg.close()
	case StateFailed:
		lg.event("run-failed", map[string]any{"run": run.ID, "error": err.Error()})
		lg.close()
	case StateQueued:
		lg.event("run-drained", map[string]any{"run": run.ID})
	}
}

// executeRun is the real analysis body (tests substitute s.execute):
// warm-cache the compressed alignment, build a grid over the shared
// fleet with this run's rank budget and checkpoint seed, run the
// workload DAG, and store the artifacts content-addressed.
func (s *Server) executeRun(run *Run) error {
	pat, err := s.patternsFor(run.AlignHash, run.PartHash)
	if err != nil {
		return err
	}
	p := run.Params
	var model core.ModelType
	switch p.Model {
	case "GTRCAT":
		model = core.GTRCAT
	case "GTRGAMMA":
		model = core.GTRGAMMA
	default:
		return fmt.Errorf("unknown model %q", p.Model)
	}
	opts := core.Options{
		Bootstraps:     p.Bootstraps,
		Workers:        s.cfg.ThreadsPerRank,
		SeedParsimony:  p.SeedParsimony,
		SeedBootstrap:  p.SeedBootstrap,
		Model:          model,
		EmpiricalFreqs: true,
	}
	if p.FastSearch {
		fast := search.Fast()
		opts.ThoroughSettings = &fast
	}

	tracer := grid.NewTracerWith(nil, run.log.sink(), s.progressSink(run))
	run.mu.Lock()
	seed := run.checkpoints
	run.mu.Unlock()
	g := grid.New(grid.Config{
		Fleet:          s.cfg.Fleet,
		Tracer:         tracer,
		ThreadsPerRank: s.cfg.ThreadsPerRank,
		MaxLeasedRanks: s.ranksBudget(),
		Checkpoints:    seed,
	})
	run.mu.Lock()
	run.grid = g
	canceled := run.canceledByUser
	run.mu.Unlock()
	if canceled {
		return grid.ErrCanceled
	}
	s.activeRuns.Store(run.ID, run)

	analysis := &grid.Analysis{
		Pat:              pat,
		Opts:             opts,
		Starts:           p.Starts,
		Replicates:       p.Bootstraps,
		Batch:            p.Batch,
		Bootstop:         p.Bootstop,
		JobPrefix:        run.ID,
		StartTrees:       startTrees{s.cache},
		StartTreeKeyBase: fmt.Sprintf("%s/%s/p%d", run.AlignHash, run.PartHash, p.SeedParsimony),
	}
	res, err := analysis.Build(g)
	if err != nil {
		return err
	}
	runErr := g.Run()
	// Snapshot checkpoints regardless of outcome: a drain-canceled run
	// resumes from them after restart.
	run.mu.Lock()
	run.checkpoints = g.Checkpoints()
	run.mu.Unlock()
	if runErr != nil {
		return runErr
	}
	return s.storeArtifacts(run, analysis, res)
}

// ranksBudget is the per-run leased-rank cap: an equal slice of the
// live fleet per admission slot, at least 1.
func (s *Server) ranksBudget() int {
	_, alive, _, _, _ := s.cfg.Fleet.Stats()
	return max(alive/s.cfg.MaxRunning, 1)
}

// progressSink folds per-run grid events into the run record and the
// server metrics: replicate counts, best lnL, dispatch totals.
func (s *Server) progressSink(run *Run) grid.Sink {
	return func(rec map[string]any) {
		switch rec["ev"] {
		case "replicate":
			run.mu.Lock()
			run.replicatesDone++
			run.mu.Unlock()
		case "ml-done", "bs-done":
			if n, ok := rec["dispatches"].(int64); ok {
				s.metrics.dispatches.Add(n)
			}
		}
	}
}

// storeArtifacts renders the workload result into content-addressed
// artifacts: best/annotated/bootstrap/consensus trees, the info
// summary, and the run's own event trace.
func (s *Server) storeArtifacts(run *Run, a *grid.Analysis, res *grid.Result) error {
	var names []string
	var contents [][]byte
	put := func(name, content string) {
		names = append(names, name)
		contents = append(contents, []byte(content))
	}
	outputs, err := res.Outputs()
	if err != nil {
		return err
	}
	for _, o := range outputs {
		put(o.Key, o.Content)
	}
	var info strings.Builder
	fmt.Fprintf(&info, `run %s (%s, tenant %s)
alignment: %d taxa, %d patterns (sha256 %s)
ML starts: %d  bootstrap replicates: %d (batch %d, %d rounds)
bootstop: converged=%v WC-distance=%.6f
best final log-likelihood: %.6f (start %d)
`, run.ID, run.Params.Model, run.Tenant,
		a.Pat.NumTaxa(), a.Pat.NumPatterns(), run.AlignHash,
		len(res.Starts), len(res.Replicates), a.Batch, res.Rounds,
		res.Converged, res.WCDistance,
		res.Best.LogLikelihood, res.Best.Index)
	put("info", info.String())
	put("events", string(run.log.dump()))
	hashes, err := s.blobs.Put(contents...)
	if err != nil {
		return err
	}
	arts := make(map[string]string, len(names))
	for i, name := range names {
		arts[name] = hashes[i]
	}
	run.mu.Lock()
	run.artifacts = arts
	run.bestLnL = res.Best.LogLikelihood
	run.rounds = res.Rounds
	run.converged = res.Converged
	run.replicatesDone = len(res.Replicates)
	run.mu.Unlock()
	return nil
}

// Cancel cancels a run: a queued run leaves its tenant queue
// immediately; a running run gets a cooperative grid cancel and unwinds
// at its next checkpoint boundary, its leased ranks draining back to
// the free pool through the normal release path.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	run, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("server: unknown run %q", id)
	}
	run.mu.Lock()
	switch run.state {
	case StateQueued:
		t := s.tenants[run.Tenant]
		for i, qr := range t.queue {
			if qr == run {
				t.queue = append(t.queue[:i], t.queue[i+1:]...)
				break
			}
		}
		run.state = StateCanceled
		run.canceledByUser = true
		run.finished = time.Now()
		s.metrics.runsCanceled.Add(1)
		lg := run.log // resubmission may swap run.log once terminal
		run.mu.Unlock()
		s.mu.Unlock()
		lg.event("run-canceled", map[string]any{"run": run.ID})
		lg.close()
		return s.persistQueue()
	case StateRunning:
		run.canceledByUser = true
		g := run.grid
		run.mu.Unlock()
		s.mu.Unlock()
		if g != nil {
			g.Cancel()
		}
		return nil
	default:
		st := run.state
		run.mu.Unlock()
		s.mu.Unlock()
		return fmt.Errorf("server: run %s already %s", id, st)
	}
}
