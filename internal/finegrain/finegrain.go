// Package finegrain is the distributed fine-grained worker pool: the
// reproduction of RAxML's _FINE_GRAIN_MPI path (genericParallelization.c),
// where the workers of the likelihood job engine live on *remote
// processes*, not just threads.
//
// The in-process hybrid (threads.Pool) stripes the pattern axis over a
// thread crew sharing one CLV arena. This package adds one more level
// to that same structure: the axis is first striped over R fabric
// ranks, and each rank subdivides its stripe over its own t-thread
// crew. Every rank builds the master's engine — the whole alignment,
// every partition, global pattern indices — over a crew covering its
// stripe, so its tip vectors and CLV arena cover only the stripe. The
// resulting R×t grid is the paper's MPI×Pthreads topology with the
// rank stripes made explicit.
//
// Pool implements likelihood.Dispatcher on the master rank, so
// likelihood.Engine — and everything above it: search, optimizers,
// core — runs unchanged on top of distributed workers. One Post is:
//
//	encode job (descriptor window + views + branch lengths
//	            [+ model-sync block when the model epoch moved])
//	-> ONE broadcast: the master writes the frame to every rank itself
//	-> master executes its own stripe (one local barrier crossing)
//	   while every rank executes its own
//	-> ONE rank-ordered collection of reduction partials, the only
//	   point at which the master waits
//
// so a partitioned full-tree relikelihood costs exactly one descriptor
// broadcast plus one reduction — the invariant tests assert by counting
// the frames on each link. Reductions combine rank partials in rank order
// after the local worker-order sums, keeping results deterministic for
// a fixed R×t grid.
//
// The stripes are an even cut of the pattern axis, because what a
// kernel costs is patterns × CLV categories, not site weight: the two
// halves of the overlap above are then the same length, and the master,
// who has the frame on the wire before it starts, is rarely the one
// waited for. Each rank's crew cuts its stripe over its threads by the
// same rule (threads.NewPoolStripeEven).
//
// One reduction does not stay where it is computed when it is small
// enough to move: the Newton derivatives of a branch. A pool whose
// remote sumtable is under sumtableGatherCrossover brings the rows home
// on the JobMakenewzSetup partial and the engine iterates on the master
// (GathersSumtable), so a branch costs one Post instead of one per
// iteration.
//
// A pool's ranks are fabric.Links, one per remote rank, leased from a
// grid fleet for -fine as for -grid: in-proc LinkPairs to worker
// goroutines (chan), TCP links to spawned `raxml -grid-worker`
// processes (tcp); Run hosts a whole hybrid on LinkPairs for tests.
// See docs/hybrid-topology.md for the wire protocol.
package finegrain

import (
	"fmt"
	"sync"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/threads"
)

// Frame tags of the finegrain protocol.
const (
	// TagInit carries a rank's WorkerInit (master -> worker, once).
	TagInit byte = 1 + iota
	// TagJob carries one encoded job frame (master -> workers).
	TagJob
	// TagPartial carries one encoded reduction partial (worker -> master).
	TagPartial
	// TagShutdown ends an idle worker's serve loop: the fleet's teardown
	// (master -> workers). A pool's owner ends its workers by closing
	// their links instead.
	TagShutdown
	// TagErr carries a worker-side error message (worker -> master).
	TagErr
	// TagRelease ends a worker's current session, returning it to the
	// grid's free pool instead of terminating it (master -> worker).
	TagRelease
	// TagReleased acks a release; the master discards every frame ahead
	// of it, flushing stale partials of an abandoned job (worker -> master).
	TagReleased
	// TagPing probes an idle worker's liveness (master -> worker).
	TagPing
	// TagPong answers a ping (worker -> master).
	TagPong
)

// sumtableGatherCrossover is the largest remote sumtable — bytes per
// branch, (patterns − stripe 0) × CLV categories × 32 — that is cheaper
// to bring home once on the JobMakenewzSetup partial than to leave on
// its ranks and visit once per Newton iteration (9.35 on average).
// Measured on TCP loopback, CAT and GAMMA, 2 ranks
// (BenchmarkOptimizeBranchRemote; table in docs/hybrid-topology.md):
// the two treatments cross at the same byte count — gathering wins
// 1.2–4× up to 51 KB (800 GAMMA or 3 200 CAT patterns), is a wash
// between 64 and 100 KB, and loses 1.4–1.5× from 205 KB on (3 200 GAMMA,
// 12 800 CAT), where the master summing the whole axis alone costs more
// than the round trips it saves — the paper's 20 k–50 k-pattern
// alignments sit far on that side. The benchmark's ranks share one
// process, which makes its round trip (~12 µs) cheaper than a spawned
// worker's (41–59 µs), so the value sits at the upper end of the wash.
const sumtableGatherCrossover = 128 << 10

// SumtableGatherLimit is the threshold NewPool compares a pool's remote
// sumtable bytes against, once, to decide whether that pool gathers. A
// variable only so tests can force either side on small data (0: never
// gather; a huge value: always); nothing in the product assigns it.
var SumtableGatherLimit = sumtableGatherCrossover

// Progress guards. Variables, not constants, so chaos runs tighten
// them for fast fault detection; zero disables a guard.
var (
	// DispatchTimeout bounds the master's wait for each rank's partial
	// within one dispatch. A rank that neither answers nor errors —
	// wedged process, frame lost in flight — would otherwise stall the
	// dispatch forever; the deadline converts it into the same
	// RankDeadError a crashed rank produces, feeding the grid's
	// restripe path. Generous by default: it needs only to beat
	// "forever", not to catch slow ranks.
	DispatchTimeout = 2 * time.Minute
	// ReleaseTimeout bounds the release handshake's drain per rank: a
	// worker that never acks (its TagRelease was lost, or it is gone)
	// is reported dead instead of blocking the lease teardown.
	ReleaseTimeout = 30 * time.Second
)

// Pool is the master-side endpoint of a distributed worker group. It
// implements likelihood.Dispatcher: the master's likelihood engine
// posts job codes to it exactly as it would to a threads.Pool. The
// master rank doubles as worker rank 0, executing stripe 0 on a local
// thread crew; ranks 1..R-1 execute their stripes remotely.
//
// A Pool serves one engine at a time (the engine posting through it
// must be the one that encodes the jobs) and is single-master like
// threads.Pool.
type Pool struct {
	links   []fabric.Link // links[r-1] is rank r
	local   *threads.Pool
	stripes []threads.Range

	// gather is the pool's answer to "who sums the Newton derivatives":
	// true when the remote stripes' sumtable rows are few enough
	// (SumtableGatherLimit) to ride home on every JobMakenewzSetup
	// partial, so the engine runs the whole Newton loop of a branch on
	// the master. Fixed at construction.
	gather bool

	// remote[r] is rank r's partial of the current job, preallocated at
	// construction and decoded into in place every dispatch (nil for the
	// master's own rank 0).
	remote []*likelihood.WirePartial

	// rankErr[r] holds rank r's first send error of the current dispatch
	// until the fold consumes it; reused across dispatches so the hot
	// path stays allocation-free.
	rankErr []error

	// shippedModel/shippedTopo are the engine epochs as of the last
	// broadcast: a moved model epoch attaches a model-sync block, a
	// moved topology epoch attaches a tile-reset marker.
	shippedModel, shippedTopo uint64

	released bool
}

// NewPool builds the master endpoint over one link per remote rank —
// job-local rank r is links[r-1]; nil is the 1-rank, master-local pool
// — whose workers are serving (ServeSessions): it cuts the pattern axis
// into one even, partition-aligned stripe per rank, ships every remote
// rank its WorkerInit (the whole pattern set, the rank's stripe, the
// treatment shape), and starts the master's own local thread crew over
// stripe 0.
// The links stay the caller's: Release ends the lease, closing them is
// the owner's business.
//
// set supplies the treatment *shape* (CAT vs GAMMA, category count)
// the worker engines are built with; it should be the same set the
// master's engine is then constructed from. threadsPerRank is t of the
// R×t grid (the same t is applied on every rank, as in the paper's
// one-rank-per-node runs).
func NewPool(links []fabric.Link, pat *msa.Patterns, set *gtr.PartitionSet, threadsPerRank int) (*Pool, error) {
	ranks := len(links) + 1
	if threadsPerRank < 1 {
		threadsPerRank = 1
	}
	// By pattern count, not by site weight: a kernel's cost is one CLV
	// block of set.ClvCats() categories per pattern whatever the pattern
	// weighs (and a bootstrap replicate reweighs the axis without
	// restriping it), so an even cut is the balanced one.
	stripes := threads.SplitEven(pat.NumPatterns(), ranks)
	threads.AlignBoundaries(stripes, likelihood.StripeQuantum, pat.PartStarts())
	for r, s := range stripes {
		if s.Len() == 0 {
			return nil, fmt.Errorf("finegrain: rank %d's stripe is empty (%d ranks over %d patterns)",
				r, ranks, pat.NumPatterns())
		}
	}
	p := &Pool{
		links:   links,
		stripes: stripes,
		remote:  make([]*likelihood.WirePartial, ranks),
		rankErr: make([]error, ranks),
	}
	for r := 1; r < ranks; r++ {
		init := &likelihood.WorkerInit{
			Threads: threadsPerRank, Stripe: stripes[r], Pat: pat,
			IsCAT: set.IsCAT(), NCats: set.ClvCats(),
		}
		if err := links[r-1].Send(TagInit, likelihood.EncodeWorkerInit(init)); err != nil {
			return nil, fmt.Errorf("finegrain: init rank %d: %w", r, &fabric.RankDeadError{Rank: r, Err: err})
		}
		p.remote[r] = &likelihood.WirePartial{}
	}
	if ranks > 1 {
		remoteBytes := (pat.NumPatterns() - stripes[0].Len()) * set.ClvCats() * 4 * 8
		p.gather = remoteBytes <= SumtableGatherLimit
	}
	p.local = threads.NewPoolStripeEven(threadsPerRank, stripes[0].Lo, stripes[0].Hi)
	return p, nil
}

// Stripes returns the per-rank pattern stripes.
func (p *Pool) Stripes() []threads.Range { return p.stripes }

// GathersSumtable reports whether the pool brings every remote stripe's
// sumtable rows home on the makenewz setup partial (the engine then
// posts no JobMakenewzCore at all). Never true on a single-rank grid.
func (p *Pool) GathersSumtable() bool { return p.gather }

// Post implements likelihood.Dispatcher. A dispatch has one blocking
// point: the master writes every rank's frame itself, runs its own
// stripe while the ranks run theirs, then reads the partials in rank
// order — the order the reduction folds them in, so the result bits are
// those of a sequential fold. The runner must be the master's likelihood
// engine (it implements likelihood.WireMaster).
//
// Every job is one TagJob frame carrying the whole descriptor window,
// sent before the master fills its own P matrices (FillTravChunk), so
// the fill overlaps the ranks' receive and the frame is on the wire
// before the local stripe starts.
//
// Any link failure — a Send or Recv error, an expired dispatch
// deadline — is typed here, and only here, as a fabric.RankDeadError
// carrying the job-local rank: the pool never closes a link mid-lease,
// so a broken one means that rank is gone. Failures panic — the
// Dispatcher contract has no error return — but only after every rank
// has been received from, and the panic value is the wrapped *error*,
// so a recover turns it back into the error of the body that posted
// (RunRecovering: the grid scheduler then re-stripes the pool over
// survivors and resumes from checkpoint; core's rank fork: -fine
// reports the dead rank).
func (p *Pool) Post(runner threads.JobRunner, code threads.JobCode) {
	wm, ok := runner.(likelihood.WireMaster)
	if !ok {
		panic(fmt.Sprintf("finegrain: runner %T cannot encode wire jobs", runner))
	}
	ranks := len(p.links) + 1
	if ranks == 1 {
		// Single-rank grid: no wire, no deferred fill (PipelinesFill
		// reports false, so the engine filled P matrices eagerly).
		p.local.Post(runner, code)
		return
	}
	modelEpoch, topoEpoch := wm.WireEpochs()
	includeModel := modelEpoch != p.shippedModel
	reset := topoEpoch != p.shippedTopo

	frame := wm.EncodeWireJob(code, includeModel, reset)

	// Straggler guard: bound this dispatch's wait for every rank's
	// partial. Armed before the first frame goes out; cleared again once
	// the fold completes.
	guard := DispatchTimeout > 0
	if guard {
		dl := time.Now().Add(DispatchTimeout)
		for _, l := range p.links {
			fabric.SetLinkRecvDeadline(l, dl)
		}
	}
	p.send(TagJob, frame)
	wm.FillTravChunk()
	p.shippedModel, p.shippedTopo = modelEpoch, topoEpoch

	p.local.Post(runner, code)

	// Receive from every rank before reacting to any failure, so the
	// supervisor's Release finds no partial of this job still queued
	// behind a healthy link. A rank whose send failed is still received
	// from: its link is broken, so the Recv errors rather than blocks.
	var firstErr error
	for r := 1; r < ranks; r++ {
		sendErr := p.rankErr[r]
		tag, payload, recvErr := p.links[r-1].Recv()
		var err error
		switch {
		case sendErr != nil:
			err = fmt.Errorf("rank %d send: %w", r, &fabric.RankDeadError{Rank: r, Err: sendErr})
		case recvErr != nil:
			err = fmt.Errorf("rank %d recv: %w", r, &fabric.RankDeadError{Rank: r, Err: recvErr})
		case tag == TagErr:
			// A worker-reported execution error: the job's own failure,
			// deliberately NOT RankDead-typed — restriping would just
			// replay it on the next lease.
			err = fmt.Errorf("rank %d: %s", r, payload)
		case tag != TagPartial:
			// Desynchronized stream (a frame was lost or mangled in
			// flight): the rank's data can no longer be trusted, which is
			// operationally identical to its death — type it so the grid
			// re-stripes instead of failing the job.
			err = &fabric.RankDeadError{Rank: r, Err: fmt.Errorf("finegrain: unexpected tag %d in reduction", tag)}
		default:
			part := p.remote[r]
			wantWide, wantVec := wm.WirePartialLen(code, p.stripes[r])
			if derr := likelihood.DecodeWirePartialInto(part, payload); derr != nil {
				err = &fabric.RankDeadError{Rank: r, Err: fmt.Errorf("finegrain: partial decode: %w", derr)}
			} else if got := len(part.Wide); got != wantWide {
				// A partial for some other job: folding it would drop or
				// misplace this rank's stripe of a score. Desynchronized,
				// like an unexpected tag.
				err = &fabric.RankDeadError{Rank: r, Err: fmt.Errorf("finegrain: partial carries %d wide components, job expects %d", got, wantWide)}
			} else if got := len(part.Vec) / 8; got != wantVec {
				// Rows nobody asked for, none when asked, or not exactly
				// this rank's stripe of them: the same desync, and nothing
				// is landed in the master's arena.
				err = &fabric.RankDeadError{Rank: r, Err: fmt.Errorf("finegrain: partial carries %d per-pattern values, job expects %d", got, wantVec)}
			} else if wantVec > 0 {
				// Decoded once, straight to its destination, while the
				// frame buffer is still ours.
				wm.AbsorbRemoteVec(code, p.stripes[r].Lo, part.Vec)
			}
			part.Vec = nil
		}
		fabric.RecycleLink(p.links[r-1], payload)
		p.rankErr[r] = nil
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if guard {
		for _, l := range p.links {
			fabric.SetLinkRecvDeadline(l, time.Time{})
		}
	}
	if firstErr != nil {
		panic(fmt.Errorf("finegrain: dispatch: %w", firstErr))
	}
}

// send writes one frame of the current dispatch to every remote rank.
// A rank whose link already failed in this dispatch is skipped: its
// first error is what the fold reports.
func (p *Pool) send(tag byte, payload []byte) {
	for r, l := range p.links {
		if p.rankErr[r+1] == nil {
			p.rankErr[r+1] = l.Send(tag, payload)
		}
	}
}

// Workers returns the number of LOCAL workers (the crew running RunJob
// in this process); remote crews execute behind the wire.
func (p *Pool) Workers() int { return p.local.Workers() }

// Slot returns local worker w's reduction slot.
func (p *Pool) Slot(w int) *[threads.SlotWidth]float64 { return p.local.Slot(w) }

// SumSlots combines slot i over the whole grid: local workers in
// worker order, then remote ranks in rank order — rank order IS
// pattern order (stripes ascend with rank), so the reduction is
// deterministic for a fixed grid. Only slots 0 and 1 cross the wire
// (every fixed-width reduction uses those); higher slots are local.
func (p *Pool) SumSlots(i int) float64 {
	sum := p.local.SumSlots(i)
	if i < 2 {
		for _, part := range p.remote {
			if part != nil {
				sum += part.Slots[i]
			}
		}
	}
	return sum
}

// SumSlots2 combines two slots at once (makenewz derivatives).
func (p *Pool) SumSlots2(i, j int) (float64, float64) {
	a, b := p.local.SumSlots2(i, j)
	for _, part := range p.remote {
		if part == nil {
			continue
		}
		if i < 2 {
			a += part.Slots[i]
		}
		if j < 2 {
			b += part.Slots[j]
		}
	}
	return a, b
}

// EnsureWide sizes the local wide slots; remote ranks size their own
// (each worker engine calls EnsureWide on its own crew).
func (p *Pool) EnsureWide(width int) { p.local.EnsureWide(width) }

// WideSlot returns local worker w's wide reduction row.
func (p *Pool) WideSlot(w int) []float64 { return p.local.WideSlot(w) }

// SumWide combines wide slot i (a partition's log-likelihood component
// after an evaluation, a candidate's score after an insertion scan)
// over the whole grid, local first then rank order. Post has checked
// that every rank's partial carries exactly the job's wide components,
// so no rank's stripe can drop out of the sum.
func (p *Pool) SumWide(i int) float64 {
	sum := p.local.SumWide(i)
	for _, part := range p.remote {
		if part != nil {
			sum += part.Wide[i]
		}
	}
	return sum
}

// AlignRangesAt snaps the local crew's stripe boundaries; rank-stripe
// boundaries were snapped to the same quantum at construction.
func (p *Pool) AlignRangesAt(quantum int, starts []int) { p.local.AlignRangesAt(quantum, starts) }

// ForkJoinRange forwards master-side precomputation to the local crew
// (an uncounted fork: Dispatches does not move), such as the deferred
// P-fill of a posted descriptor window.
func (p *Pool) ForkJoinRange(lo, hi, grain int, fn func(lo, hi int)) {
	p.local.ForkJoinRange(lo, hi, grain, fn)
}

// PipelinesFill reports whether the pool overlaps the P-matrix fill
// with the dispatch: the engine then defers the fill at traversal
// planning and Post completes it after the frame has been sent. A
// single-rank grid has no wire to overlap with, so it fills eagerly.
func (p *Pool) PipelinesFill() bool { return len(p.links) > 0 }

// Dispatches counts jobs posted (each Post is one local barrier
// crossing plus one broadcast/reduction pair).
func (p *Pool) Dispatches() int64 { return p.local.Dispatches() }

// Release ends the pool's lease on its remote ranks without
// terminating them: each rank gets a TagRelease frame and the master
// drains its link — discarding partials of any abandoned in-flight job
// — until the TagReleased ack, after which the rank is provably idle
// and safe to lease to another coarse job. The local crew is closed.
// Release is the one way a lease ends: an owner that is done with its
// workers closes their links afterwards, and a released worker exits
// cleanly on a closed link.
//
// Ranks that fail the handshake (broken link, no ack) are returned so
// the caller can mark them dead; a failed rank never blocks the
// release of the ranks after it.
func (p *Pool) Release() (dead []int) {
	if p.released {
		return nil
	}
	p.released = true
	for r, l := range p.links {
		if !ReleaseLink(l) {
			dead = append(dead, r+1)
		}
	}
	p.local.Close()
	return dead
}

// ReleaseLink runs the release handshake over one worker's link: send
// TagRelease, discard frames until the TagReleased ack. Reports whether
// the worker acked (is alive and idle). Pool.Release runs it per rank;
// the grid runs it directly on a lease whose pool was never built.
func ReleaseLink(l fabric.Link) bool {
	if err := l.Send(TagRelease, nil); err != nil {
		return false
	}
	// Bounded drain, in both frames and time: a sane worker has at most
	// a handful of frames in flight (one partial per abandoned job
	// frame); a stream that keeps producing non-ack frames is broken,
	// and a wedged worker that never acks must not hold the release of
	// the ranks after it hostage.
	if ReleaseTimeout > 0 {
		fabric.SetLinkRecvDeadline(l, time.Now().Add(ReleaseTimeout))
		defer fabric.SetLinkRecvDeadline(l, time.Time{})
	}
	for i := 0; i < 1024; i++ {
		tag, _, err := l.Recv()
		if err != nil {
			return false
		}
		if tag == TagReleased {
			return true
		}
	}
	return false
}

// RunRecovering runs body on eng and converts the wrapped-error panics
// of Post — the only way a link failure can cross the no-error
// Dispatcher contract — back into body's error, so a dead rank reaches
// the caller as an error carrying a fabric.RankDeadError. Non-error
// panics keep propagating.
func RunRecovering(body func(*likelihood.Engine) error, eng *likelihood.Engine) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(error)
			if !ok {
				panic(r)
			}
			err = e
		}
	}()
	return body(eng)
}

// Run hosts an in-proc R×t hybrid: ranks 1..R-1 serve their stripes
// over LinkPairs, and rank 0 builds the distributed pool and a
// full-axis master engine over the master ends and runs body — the
// zero-setup harness of the tests. The engine handed to body
// evaluates over all R×t workers; body runs on the master only.
func Run(ranks, threadsPerRank int, pat *msa.Patterns, set *gtr.PartitionSet, body func(eng *likelihood.Engine, pool *Pool) error) error {
	if ranks < 1 {
		return fmt.Errorf("finegrain: %d ranks", ranks)
	}
	links := make([]fabric.Link, ranks-1)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		m, w := fabric.LinkPair()
		links[r-1] = m
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = ServeSessions(w)
		}()
	}
	err := func() error {
		pool, err := NewPool(links, pat, set, threadsPerRank)
		if err != nil {
			return err
		}
		defer pool.Release()
		eng, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool})
		if err != nil {
			return err
		}
		return body(eng, pool)
	}()
	for _, l := range links {
		l.Close()
	}
	wg.Wait()
	if err != nil {
		return err
	}
	for r := 1; r < ranks; r++ {
		if errs[r] != nil {
			return fmt.Errorf("finegrain: rank %d: %w", r, errs[r])
		}
	}
	return nil
}
