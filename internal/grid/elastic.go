package grid

import (
	"fmt"

	"raxml/internal/fabric"
	"raxml/internal/finegrain"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
)

// maxRestripes caps re-stripe attempts per job after rank deaths: a
// fleet losing ranks faster than that is gone.
const maxRestripes = 8

// Elastic runs body over a likelihood engine striped across the job's
// current lease of fine-grain workers, re-striping and retrying when a
// leased rank dies. Each attempt:
//
//  1. lease a fair share of the free pool (possibly zero workers — the
//     job then runs master-local, never blocking on the fleet),
//  2. build a fresh finegrain.Pool + engine over the leased links
//     (newSet supplies the model set, fresh per attempt: model state
//     mutates during a run and must restart from the checkpointed
//     origin, not from a half-optimized carcass),
//  3. run body under finegrain.RunRecovering, which turns the pool's
//     link-failure panics back into RankDeadErrors,
//  4. release the lease: drain survivors back to the free pool, report
//     dead ranks to the fleet.
//
// On a RankDeadError the attempt repeats — survivors plus any late
// joiners form the new stripe — and body re-enters from the job's last
// checkpoint (ctx.Load). Any other error is the job's own and returns
// as-is. Body must therefore be resumable: idempotent up to its
// checkpoint, deterministic past it.
func (c *JobContext) Elastic(pat *msa.Patterns, newSet func() (*gtr.PartitionSet, error), body func(eng *likelihood.Engine) error) error {
	for attempt := 0; ; attempt++ {
		if c.Canceled() {
			return ErrCanceled
		}
		ws := c.g.cfg.Fleet.leaseShare(c.job.ID, c.g, pat)
		c.g.addLeased(len(ws))
		err := c.attempt(pat, newSet, body, ws)
		c.g.addLeased(-len(ws))
		if err == nil {
			return nil
		}
		rde := fabric.AsRankDead(err)
		if rde == nil {
			return err
		}
		if attempt >= maxRestripes {
			return fmt.Errorf("grid: job %s: %d re-stripes exhausted: %w", c.job.ID, attempt, err)
		}
		c.g.cfg.Tracer.Event("restripe", c.job.ID, map[string]any{
			"dead_rank": rde.Rank, "attempt": attempt + 1,
		})
	}
}

// leaseShare leases jobID a fair share of the free pool: free workers
// divided by running jobs, capped so every rank stripe spans at least
// two quanta of the pattern axis.
func (f *Fleet) leaseShare(jobID string, g *Grid, pat *msa.Patterns) []*Worker {
	if f == nil {
		return nil
	}
	g.mu.Lock()
	running := g.running
	g.mu.Unlock()
	if running < 1 {
		running = 1
	}
	free := f.NumFree()
	want := (free + running - 1) / running
	if cap := pat.NumPatterns()/(2*likelihood.StripeQuantum) - 1; want > cap {
		want = cap
	}
	if budget := g.leaseBudget(); budget >= 0 && want > budget {
		want = budget
	}
	if want < 0 {
		want = 0
	}
	return f.Lease(jobID, want)
}

// attempt runs one lease-to-release cycle.
func (c *JobContext) attempt(pat *msa.Patterns, newSet func() (*gtr.PartitionSet, error), body func(eng *likelihood.Engine) error, ws []*Worker) error {
	links := make([]fabric.Link, len(ws))
	for i, w := range ws {
		links[i] = w.link
	}
	set, err := newSet()
	if err != nil {
		c.g.cfg.Fleet.ReleaseAll(ws)
		return err
	}
	pool, err := finegrain.NewPool(links, pat, set, c.g.cfg.ThreadsPerRank)
	if err != nil {
		// Init may have reached some workers before a link broke; the
		// per-link handshake drains whoever answers.
		c.g.cfg.Fleet.ReleaseAll(ws)
		return err
	}
	defer func() {
		dead := pool.Release()
		c.g.cfg.Fleet.Return(ws, dead)
	}()
	eng, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool})
	if err != nil {
		return err
	}
	return finegrain.RunRecovering(body, eng)
}
