package core

import (
	"fmt"
	"sync"

	"raxml/internal/fabric"
	"raxml/internal/finegrain"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/rapidbs"
	"raxml/internal/rng"
	"raxml/internal/search"
	"raxml/internal/threads"
)

// This file is the coarse grain's rank model. A rank is a goroutine: it
// seeds its own streams, builds its own pool and engine, works through
// its share of the schedule and writes its results into a rank-indexed
// slot. The paper's two synchronization points (Section 2.1) are not
// messages: the best-tree broadcast and the support gather are folds
// over those slots in rank order after the ranks have joined, so a
// result is a pure function of inputs and seeds (Section 2.4), whatever
// order the goroutines ran in.

// rank is what one coarse-grained process owns for its whole share of
// an analysis: its two seed streams — rank r draws from seed + 10000·r
// on both (Section 2.4) — and one pool and one engine serving all of
// its work, so the worker crew, the CLV arena and the traversal-
// descriptor buffer are reused across every replicate and search stage
// (the persistent-crew structure of the paper's Pthreads layer).
//
// A rank given links to fine-grain workers is the paper's fine grain
// (RAxML's _FINE_GRAIN_MPI): its engine posts through a finegrain.Pool
// striped over the workers at the links' far ends, and the rank runs
// stripe 0 itself. Its pool then builds parsimony start trees only,
// which stay master-side over the full axis.
type rank struct {
	id             int
	opts           Options
	parsRNG, bsRNG *rng.RNG
	pool           *threads.Pool
	fine           *finegrain.Pool // the engine's dispatcher when it is striped over links
	eng            *likelihood.Engine
}

// newRank builds rank id's streams, crew and engine. The caller closes
// the rank.
func newRank(pat *msa.Patterns, opts Options, id int, links []fabric.Link) (*rank, error) {
	r := &rank{
		id:      id,
		opts:    opts,
		parsRNG: rng.ForRank(opts.SeedParsimony, id),
		bsRNG:   rng.ForRank(opts.SeedBootstrap, id),
		pool:    threads.NewPool(opts.Workers, pat.NumPatterns()),
	}
	set, err := buildPartitionSet(pat, opts)
	if err != nil {
		r.close()
		return nil, err
	}
	var d likelihood.Dispatcher = r.pool
	if len(links) > 0 {
		if r.fine, err = finegrain.NewPool(links, pat, set, opts.Workers); err != nil {
			r.close()
			return nil, err
		}
		d = r.fine
	}
	if r.eng, err = likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: d}); err != nil {
		r.close()
		return nil, err
	}
	if opts.EmpiricalFreqs {
		r.eng.EstimateEmpiricalFreqs()
	}
	return r, nil
}

// close stops the rank's crews and ends its lease on its fine-grain
// workers; the links stay open.
func (r *rank) close() {
	r.pool.Close()
	if r.fine != nil {
		r.fine.Release()
	}
}

// bootstraps runs n rapid-bootstrap replicates on the rank's streams.
func (r *rank) bootstraps(n int) ([]*rapidbs.Replicate, error) {
	runner := rapidbs.NewRunner(r.eng)
	if r.opts.BootstrapSettings != nil {
		runner.SetSearchSettings(*r.opts.BootstrapSettings)
	}
	return runner.Run(n, r.bsRNG, r.parsRNG)
}

// forkRanks runs body for ranks 0..n-1, each on its own goroutine — the
// coarse grain's mpirun — and returns once every rank has. A rank that
// panics fails with an error naming it instead of taking the process
// down; when several ranks fail, the lowest rank's error is returned,
// whatever order they failed in. A fine-grain worker that dies under a
// rank is such a panic (finegrain.Pool.Post has no error return), and
// its error keeps its fabric.RankDeadError.
func forkRanks(n int, body func(rank int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if err, ok := p.(error); ok && fabric.AsRankDead(err) != nil {
						errs[r] = fmt.Errorf("core: rank %d: %w", r, err)
					} else {
						errs[r] = fmt.Errorf("core: rank %d panicked: %v", r, p)
					}
				}
			}()
			if err := body(r); err != nil {
				errs[r] = fmt.Errorf("core: rank %d: %w", r, err)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runPhases runs first and then second on every rank. With join == nil
// the ranks never meet: each runs both phases in one fork, so a rank
// that finishes its first phase early goes straight on. Otherwise every
// rank finishes first, join runs once over their results, and only then
// do the ranks start second; a failure in either of the first two
// starts no second-phase work.
func runPhases(n int, first func(rank int) error, join func() error, second func(rank int) error) error {
	if join == nil {
		return forkRanks(n, func(r int) error {
			if err := first(r); err != nil {
				return err
			}
			return second(r)
		})
	}
	if err := forkRanks(n, first); err != nil {
		return err
	}
	if err := join(); err != nil {
		return err
	}
	return forkRanks(n, second)
}

// settingsOr returns *s, or def when s is nil.
func settingsOr(s *search.Settings, def search.Settings) search.Settings {
	if s != nil {
		return *s
	}
	return def
}
