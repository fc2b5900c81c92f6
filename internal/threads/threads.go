// Package threads is the fine-grained parallel substrate of this
// reproduction: the Go analogue of RAxML's Pthreads layer.
//
// RAxML's Pthreads code keeps a fixed crew of worker threads alive for
// the whole run. The master posts a "job code" (newview, evaluate,
// makenewz, ...), every worker executes that job over its statically
// assigned range of alignment patterns, and a barrier collects them;
// reductions (log-likelihood sums, derivative sums) combine per-worker
// partials. This package reproduces that structure as a job-code
// execution engine, mirroring PLL's genericParallelization.c:
//
//   - Job codes. A job is identified by a small integer (JobNewview,
//     JobEvaluate, JobMakenewz, JobParsimony, ...), not by a closure.
//     The engine that owns the job's data implements JobRunner; posting
//     a job stores the code, releases the crew, and allocates nothing.
//     Job arguments travel through fields of the runner that the master
//     writes before Post — the publication of the job code is the
//     synchronization point (like RAxML's volatile threadJob).
//
//   - Claimable ranges behind a spin/park barrier. A job is W fixed
//     ranges with W fixed reduction slots; which goroutine runs a range
//     is decided per job by a claim cell per range. A helper claims its
//     own range when it sees the job generation, and the master, done
//     with range 0, claims and runs every range nobody has started, so
//     it only ever waits for ranges in execution — spinning briefly,
//     then parking. A helper that is parked, descheduled or late costs
//     the master that helper's range, never a wait: W workers degrade to
//     one worker's speed, not below it. Results cannot depend on the
//     executor, because slots, wide rows and runner scratch are indexed
//     by range.
//
//   - A crew kept hot while it pays. After its range a helper spins for
//     the next job — as RAxML's workers spin on threadJob — only while
//     the spin bank holds credit: the wall time the cost table (cost.go)
//     credits recent publications with on a hot crew, less the time the
//     crew has spun for them. A search whose jobs are long enough to
//     share keeps its crew awake from one post to the next; a crew whose
//     publications save less than its spin costs parks after its range,
//     and the jobs after it meet the cost of a wake. The spin yields its
//     P every 64 loads, so a crew larger than GOMAXPROCS (-R 2 -T 2 on
//     two cores) shares the Ps with its masters. An idle crew parks
//     within a millisecond and costs nothing.
//
//   - Work-aware dispatch. A runner that implements JobWork tells the
//     pool what a job costs in the table's units; the pool publishes it
//     only when the table predicts the master's inline time over all W
//     ranges to exceed the widest range's time plus the crossing for the
//     crew as it stands — waking a parked helper, or a cache miss for a
//     spinning one (Gain). Any other job runs on the master over all W
//     ranges without publishing a generation. A crew built under
//     GOMAXPROCS=1 has no second P to run a helper on, so it runs every
//     such job inline. One Post is one dispatch and at most one barrier
//     crossing; Dispatches counts the former, Counters splits them.
//
//   - Reduction slots. Every worker owns a cache-line padded slot of
//     float64 accumulators, preallocated at pool construction. Kernels
//     write partial sums into their slot; the master combines them in
//     worker order (SumSlots), keeping reductions deterministic and
//     allocation-free.
//
// A Pool with W workers partitions [0, n) patterns into W contiguous
// ranges balanced by pattern weight mass. The master executes range 0
// on the posting goroutine itself; W-1 helper goroutines stand by for
// the rest. A Pool with 1 worker executes inline on the caller's goroutine:
// the serial code path is literally the same code, as in RAxML where
// the standalone binary is the single-thread special case.
//
// ForkJoinRange runs closures over the crew through the same job engine,
// under a reserved internal job code.
package threads

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Range is a half-open interval of pattern indices assigned to a worker.
type Range struct{ Lo, Hi int }

// Len returns the number of patterns in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// JobCode identifies a parallel job posted to the crew, mirroring
// RAxML's THREAD_* job codes. The codes are defined here, in the
// substrate layer, so that every engine (likelihood, parsimony, ...)
// shares one vocabulary and one dispatch path.
type JobCode int32

const (
	// jobClosure is the reserved internal code behind ForkJoinRange.
	jobClosure JobCode = iota
	// JobNewview walks a traversal descriptor, computing every stale
	// conditional likelihood vector over the worker's pattern range.
	JobNewview
	// JobEvaluate walks a traversal descriptor and then computes the
	// per-worker log-likelihood partial at the virtual root.
	JobEvaluate
	// JobMakenewz computes the first and second branch-length
	// derivative partials (the Newton-Raphson quantities) through the
	// full transition-matrix products — the reference kernel, kept for
	// golden tests and ablation (SetLegacyMakenewz).
	JobMakenewz
	// JobMakenewzSetup projects the two endpoint CLVs of a branch into
	// the model eigenbasis and fills the worker's stripe of the
	// per-(site, category) sumtable arena — phase 1 of the two-phase
	// makenewz, posted once per branch.
	JobMakenewzSetup
	// JobMakenewzCore reduces the derivative partials by 4-term dot
	// products of the eigen exponential factors against the sumtable —
	// phase 2, posted once per further Newton iteration (never by an
	// engine whose distributed dispatcher gathered the sumtable with the
	// setup: it runs the same reduction on its own goroutine).
	JobMakenewzCore
	// JobSiteLL fills per-pattern site log-likelihoods.
	JobSiteLL
	// JobInsertScan scores every candidate insertion of one lazy-SPR
	// prune (a three-way CLV join per candidate), one partial per
	// candidate in the worker's wide reduction row.
	JobInsertScan
	// JobParsimony walks a descriptor of directed Fitch views and then
	// reduces either the parsimony score partial at one edge or, for a
	// stepwise-addition step, one score partial per candidate insertion
	// edge in the worker's wide reduction row.
	JobParsimony
)

// JobRunner executes posted job codes. The runner owns all job data
// (descriptors, scratch matrices, destination buffers); RunJob must
// confine writes to the worker's pattern range and the worker's
// reduction slot.
type JobRunner interface {
	RunJob(code JobCode, worker int, r Range)
}

// WorkEstimator is the one optional interface Post looks for on the
// runner it is handed. JobWork returns the predicted time, in
// picoseconds, of the job about to be posted per pattern of a range: its
// steps per pattern, each priced at its code's StepCost. The pool
// multiplies by its ranges (Gain) and runs a job that does not pay for
// the crossing on the master alone. A runner without the method is
// always published.
type WorkEstimator interface {
	JobWork(code JobCode) int
}

// SlotWidth is the number of float64 accumulators in one worker's
// reduction slot — enough for every current reduction (log-likelihood,
// two derivatives, parsimony score) with room to grow.
const SlotWidth = 8

// slot is one worker's reduction storage, padded so adjacent workers
// never share a cache line (false sharing would serialize the very
// loops the pool exists to parallelize).
type slot struct {
	v [SlotWidth]float64
	_ [64]byte
}

// wideQuantum pads per-worker wide-slot rows to whole 64-byte cache
// lines (8 float64), keeping adjacent workers' rows off shared lines.
const wideQuantum = 8

// spinIters bounds the busy-wait of the master behind ranges in
// execution (awaitCrew): about 20–40 µs, after which it parks on its
// condition variable.
const spinIters = 4096

// Bits of Pool.assign above the per-range mask: assignOn marks the mask as
// set, assignHold stalls the helpers before they claim.
const (
	assignOn   = 1 << 63
	assignHold = 1 << 62
)

// claimCell is one range's claim word: the last job generation somebody
// took the range for, on a cache line of its own. Cell 0 is never used —
// range 0 is the master's.
type claimCell struct {
	gen atomic.Uint64
	_   [56]byte
}

// Counters splits a pool's dispatches by what they cost. All four are
// plain fields only the posting goroutine writes.
type Counters struct {
	Inline    int64 // posts the master ran alone, no generation published
	Published int64 // posts published to the crew
	Taken     int64 // helper ranges (and fork chunks) the master ran itself
	Wakes     int64 // published posts that found a helper parked and woke it
}

// Pool is a crew of persistent workers executing pattern-parallel jobs.
// The zero value is not usable; construct with NewPool. A Pool must be
// Closed when no longer needed, except the inline single-worker pool.
// Posting is single-master: only one goroutine may post jobs at a time.
type Pool struct {
	workers int
	ranges  []Range
	slots   []slot
	// total and widest are the patterns of all ranges and of the longest
	// one: what the master runs inline and what the crew runs in parallel.
	total, widest int
	// oneP is whether GOMAXPROCS was 1 when the crew was built: a helper
	// can then only run on the master's P, never beside it, so every job
	// that states its work runs inline.
	oneP bool

	// wide is the variable-width reduction storage: one row of
	// wideWidth float64 per worker at stride wideStride (padded to
	// whole cache lines). Sized by EnsureWide; engines use it for
	// reductions whose component count is data-dependent (one
	// log-likelihood component per alignment partition).
	wide       []float64
	wideWidth  int
	wideStride int

	// Current job, published by the master before bumping gen. Plain
	// fields: the atomic gen increment is the release point and the
	// worker's gen load the acquire point.
	runner JobRunner
	code   JobCode
	fn     func(worker int, r Range)

	// The fork in flight (ForkJoinRange): fork.fn runs over window
	// [lo, lo+n) cut into `chunks` pieces, worker w taking piece w.
	// forkFn is runFork bound once at construction, so a fork publishes
	// no fresh closure.
	fork struct {
		lo, n, chunks int
		fn            func(lo, hi int)
	}
	forkFn func(worker int, r Range)

	gen     atomic.Uint64 // job generation counter; the master is its only writer
	cells   []claimCell   // per range: the last generation claimed
	arrived atomic.Int64  // helper-run ranges of the current job that finished
	stop    atomic.Bool   // pool shutdown
	// bank is the spin bank: the hot gains of recent publications
	// (publish) less the time helpers spun for the next job since
	// (awaitJob).
	bank atomic.Int64

	dispatches atomic.Int64 // total Posts
	counters   Counters

	// assign is the one test hook, zero in production. With assignOn it
	// fixes who runs each helper range — bit w set for the master, clear
	// for the helper — and every job is published and every publication
	// wakes. With assignHold every helper stalls between seeing a generation
	// and claiming its range — where a descheduled helper sits — until the
	// bit is cleared.
	assign atomic.Uint64

	jobMu   sync.Mutex // guards worker parking on jobCond, and writes of parked
	jobCond *sync.Cond
	parked  atomic.Int32 // helpers that went to wait on jobCond since its last broadcast
	barMu   sync.Mutex   // guards master parking on barCond
	barCond *sync.Cond
	barWait atomic.Bool // the master is (about to be) parked on barCond

	postMu sync.Mutex // serializes posts; also guards closed
	closed bool
	wg     sync.WaitGroup
}

// NewPool creates a pool of `workers` over `nPatterns` patterns split
// into contiguous ranges of (nearly) equal pattern count. workers is
// clamped to [1, nPatterns] (a worker with an empty range would only
// add synchronization cost, as the paper's small-data-set results
// show). The posting goroutine acts as worker 0; workers-1 helper
// goroutines are spawned.
func NewPool(workers, nPatterns int) *Pool {
	w := clampWorkers(workers, nPatterns)
	return newPool(w, SplitEven(nPatterns, w))
}

// NewPoolWeighted creates a pool whose ranges balance total pattern
// weight rather than pattern count, mirroring RAxML's weighted pattern
// distribution: a bootstrap replicate concentrates weight on few
// patterns, and unweighted splitting would idle most workers.
func NewPoolWeighted(workers int, weights []int) *Pool {
	w := clampWorkers(workers, len(weights))
	return newPool(w, SplitWeighted(weights, w))
}

// NewPoolStripe creates a pool whose workers cover only the pattern
// stripe [lo, hi) of a wider axis, with ranges balanced by the weight
// mass inside the stripe. Worker ranges carry *global* pattern indices,
// so engines indexing the full axis run unchanged — this is the local
// crew of one rank of a distributed (finegrain) pool, where every rank
// owns one stripe of the shared pattern axis and subdivides it among
// its own threads. weights spans the full axis.
func NewPoolStripe(workers int, weights []int, lo, hi int) *Pool {
	if lo < 0 || hi > len(weights) || hi < lo {
		panic(fmt.Sprintf("threads: stripe [%d, %d) outside [0, %d)", lo, hi, len(weights)))
	}
	w := clampWorkers(workers, hi-lo)
	return newStripePool(w, SplitWeighted(weights[lo:hi], w), lo)
}

// NewPoolStripeEven is NewPool over the stripe [lo, hi) of a wider axis:
// ranges of (nearly) equal pattern count, carrying global pattern
// indices like NewPoolStripe's.
func NewPoolStripeEven(workers, lo, hi int) *Pool {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("threads: stripe [%d, %d)", lo, hi))
	}
	w := clampWorkers(workers, hi-lo)
	return newStripePool(w, SplitEven(hi-lo, w), lo)
}

// newStripePool is newPool over ranges cut on a stripe's own axis,
// moved to the stripe's start lo on the wider one.
func newStripePool(workers int, ranges []Range, lo int) *Pool {
	for i := range ranges {
		ranges[i].Lo += lo
		ranges[i].Hi += lo
	}
	return newPool(workers, ranges)
}

func clampWorkers(workers, n int) int {
	if workers < 1 {
		workers = 1
	}
	if n > 0 && workers > n {
		workers = n
	}
	return workers
}

func newPool(workers int, ranges []Range) *Pool {
	p := &Pool{workers: workers, ranges: ranges}
	p.slots = make([]slot, workers)
	if workers == 1 {
		return p // inline execution; no goroutines, no barrier
	}
	p.setShape()
	p.oneP = runtime.GOMAXPROCS(0) == 1
	p.cells = make([]claimCell, workers)
	p.forkFn = p.runFork
	p.jobCond = sync.NewCond(&p.jobMu)
	p.barCond = sync.NewCond(&p.barMu)
	for w := 1; w < workers; w++ {
		p.wg.Add(1)
		go p.workerLoop(w)
	}
	return p
}

// setShape records the patterns of all ranges and of the widest, the
// figures Gain prices a job over.
func (p *Pool) setShape() {
	p.total, p.widest = 0, 0
	for _, r := range p.ranges {
		p.total += r.Len()
		p.widest = max(p.widest, r.Len())
	}
}

// pinned decodes the test hook word a for helper range w: whether an
// assignment is forced at all (ok) and, if so, whether it hands the range
// to the master or pins it on the helper.
func pinned(a uint64, w int) (master, ok bool) {
	return a>>uint(w)&1 == 1, a&assignOn != 0
}

// workerLoop is the life of one helper worker: wait for a job
// generation, claim the worker's own range for it, execute it, report
// arrival. A generation whose range the master already took — the helper
// was parked, descheduled or simply late — is skipped without touching
// the job: only a successful claim proves the job is still in flight and
// its fields readable.
func (p *Pool) workerLoop(w int) {
	defer p.wg.Done()
	cell := &p.cells[w].gen
	var seen uint64
	for {
		if !p.awaitJob(&seen) {
			return
		}
		if a := p.assign.Load(); a != 0 { // tests only
			for a&assignHold != 0 {
				runtime.Gosched()
				a = p.assign.Load()
			}
			if master, ok := pinned(a, w); ok && master {
				continue
			}
		}
		// c < seen keeps a helper that slept through generations from
		// claiming backwards: every cell of a finished job holds at least
		// that job's generation.
		if c := cell.Load(); c >= seen || !cell.CompareAndSwap(c, seen) {
			continue
		}
		// Re-read the stripe each job: AlignRangesAt may have snapped the
		// boundaries after this worker started (the master's generation
		// store orders that write before this read).
		p.execute(w, p.ranges[w])
		p.arrived.Add(1)
		if p.barWait.Load() {
			p.barMu.Lock()
			p.barCond.Broadcast()
			p.barMu.Unlock()
		}
	}
}

// awaitJob blocks until a job generation newer than *seen is published
// and records it: spin for the helper's share of the spin bank, debiting
// what it spun (spent), then park. Returns false on shutdown. A parked
// helper sleeps through generations published without a wake (forks);
// the master runs their ranges. The spin yields every 64 loads; it reads
// the clock there, when it starts and when the job comes.
func (p *Pool) awaitJob(seen *uint64) bool {
	if share := spinShare(p.bank.Load(), p.workers-1); share > 0 {
		start := time.Now()
		for i := 1; ; i++ {
			if g := p.gen.Load(); g != *seen {
				p.bank.Add(-spent(time.Since(start), share))
				*seen = g
				return true
			}
			if p.stop.Load() {
				return false
			}
			if i&63 != 0 {
				continue
			}
			runtime.Gosched()
			if spun := time.Since(start); spun >= share {
				p.bank.Add(-spent(spun, share))
				break
			}
		}
	}
	p.jobMu.Lock()
	defer p.jobMu.Unlock()
	for {
		if g := p.gen.Load(); g != *seen {
			*seen = g
			return true
		}
		if p.stop.Load() {
			return false
		}
		p.parked.Add(1) // whoever broadcasts resets it
		p.jobCond.Wait()
	}
}

// execute runs the published job over range w.
func (p *Pool) execute(w int, r Range) {
	if p.code == jobClosure {
		p.fn(w, r)
	} else {
		p.runner.RunJob(p.code, w, r)
	}
}

// Post runs one job code over every pattern range and returns when all
// ranges have finished: one dispatch, at most one barrier crossing. The
// job's inputs must already be stored in the runner; posting allocates
// nothing.
func (p *Pool) Post(runner JobRunner, code JobCode) {
	p.post(runner, code, nil)
}

// post is the counted dispatch behind Post: serialize on postMu, count
// the dispatch and run the job — on the master alone unless publishing
// it pays.
func (p *Pool) post(runner JobRunner, code JobCode, fn func(worker int, r Range)) {
	p.postMu.Lock()
	if p.closed {
		p.postMu.Unlock()
		panic("threads: job posted on closed Pool")
	}
	p.dispatches.Add(1)
	switch a := p.assign.Load(); {
	case p.workers == 1:
		p.runner, p.code, p.fn = runner, code, fn
		p.execute(0, p.ranges[0])
	case a&assignOn == 0 && !p.publishes(runner, code):
		// The crew never learns of this job: no generation, no shared
		// atomics, no wake. Ranges, slots and scratch are the published
		// job's, so the result is too.
		p.counters.Inline++
		for w, r := range p.ranges {
			runner.RunJob(code, w, r)
		}
	default:
		p.counters.Published++
		p.run(runner, code, fn, true, a)
	}
	p.postMu.Unlock()
}

// publishes reports whether the job pays for publishing to the crew as
// it stands — a helper asleep, so that the post would have to wake it,
// or all spinning — and credits the spin bank for it (publish). On one P
// no stated work pays: a helper could only take the P from the master. A
// runner that states no work is always published, for no credit.
func (p *Pool) publishes(runner JobRunner, code JobCode) bool {
	est, ok := runner.(WorkEstimator)
	if !ok {
		return true
	}
	if p.oneP {
		return false
	}
	work, parked := est.JobWork(code), p.parked.Load() > 0
	for {
		b := p.bank.Load()
		pub, nb := p.publish(work, parked, b)
		if !pub || p.bank.CompareAndSwap(b, nb) {
			return pub
		}
	}
}

// run executes one job over the ranges of a crew, counted (post) or not
// (ForkJoinRange): publish it — waking parked helpers only for wake — run
// the master's own range, take over every helper range nobody has
// started, and wait out the ranges in execution. a is the test hook word.
// Caller holds postMu.
func (p *Pool) run(runner JobRunner, code JobCode, fn func(worker int, r Range), wake bool, a uint64) {
	p.runner, p.code, p.fn = runner, code, fn
	g := p.release(wake || a&assignOn != 0)
	p.execute(0, p.ranges[0]) // the master is worker 0
	taken := 0
	for w := 1; w < p.workers; w++ {
		if master, ok := pinned(a, w); ok && !master {
			continue
		}
		cell := &p.cells[w].gen
		if c := cell.Load(); c < g && cell.CompareAndSwap(c, g) {
			p.execute(w, p.ranges[w])
			taken++
		}
	}
	p.counters.Taken += int64(taken)
	p.awaitCrew(int64(p.workers - 1 - taken))
}

// release publishes the current job to the crew and returns its
// generation: reset the arrival counter, store the generation and, for
// wake, rouse the helpers parked on jobCond. Without wake the store needs
// no lock: a helper that parks past it has lost nothing the master will
// not run itself.
func (p *Pool) release(wake bool) uint64 {
	p.arrived.Store(0)
	g := p.gen.Load() + 1
	if !wake {
		p.gen.Store(g)
		return g
	}
	p.jobMu.Lock()
	p.gen.Store(g)
	if p.parked.Load() > 0 {
		p.parked.Store(0)
		p.counters.Wakes++
		p.jobCond.Broadcast()
	}
	p.jobMu.Unlock()
	return g
}

// awaitCrew blocks until the `want` ranges helpers claimed have
// finished: spin first (a helper that claimed is running, and finishes
// within microseconds of the master on balanced ranges), then park.
func (p *Pool) awaitCrew(want int64) {
	for i := 0; i < spinIters; i++ {
		if p.arrived.Load() == want {
			return
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
	p.barMu.Lock()
	p.barWait.Store(true)
	for p.arrived.Load() != want {
		p.barCond.Wait()
	}
	p.barWait.Store(false)
	p.barMu.Unlock()
}

// AlignRangesAt snaps the pool's stripe boundaries to quantum-pattern
// multiples *relative to segment starts*, so that no two workers ever
// write the same cache line of a tile. `starts` lists the pattern-axis
// offsets where aligned segments begin (a partitioned CLV arena pads
// each partition's segment to whole cache lines, so alignment is only
// meaningful relative to the containing partition's start); nil or
// empty means one segment at 0.
// A boundary snaps to the nearest segment-relative quantum multiple,
// clamped to the containing segment's end — landing exactly on a
// partition boundary is always line-safe because segments are padded.
//
// Each boundary moves by at most quantum/2 patterns, so weighted splits
// (NewPoolWeighted) shift at most quantum/2 patterns of weight per
// edge. Snapping is per-boundary: a boundary whose move would empty an
// adjacent stripe keeps its exact (weighted) position while the other
// boundaries still snap — degenerate stripes (a very narrow partition,
// a weight spike) therefore never disappear and never disable snapping
// elsewhere. When the *average* stripe is under 2·quantum patterns the
// whole call is a no-op: such workloads are latency-bound, not
// bandwidth-bound, and rebalancing them would cost more than a shared
// line. Must not be called concurrently with a posted job; the next
// Post publishes the new stripes to the crew.
func (p *Pool) AlignRangesAt(quantum int, starts []int) {
	if quantum <= 1 || p.workers == 1 {
		return
	}
	p.postMu.Lock()
	defer p.postMu.Unlock()
	AlignBoundaries(p.ranges, quantum, starts)
	p.setShape()
}

// AlignBoundaries snaps the boundaries of a contiguous range partition
// in place, with AlignRangesAt's semantics (segment-relative snapping,
// per-boundary degenerate-stripe protection, no-op on narrow average
// stripes). Exported so stripe computations outside a Pool — the
// per-rank stripes of a distributed worker pool — snap with exactly the
// same rules as a pool's own thread stripes.
func AlignBoundaries(ranges []Range, quantum int, starts []int) {
	k := len(ranges)
	if quantum <= 1 || k <= 1 {
		return
	}
	n := ranges[k-1].Hi
	if n-ranges[0].Lo < 2*quantum*k {
		return
	}
	if len(starts) == 0 {
		starts = []int{0}
	}
	lo := ranges[0].Lo
	for i := 0; i < k-1; i++ {
		b := ranges[i].Hi
		cand := snapToSegment(b, quantum, starts, n)
		if cand <= lo || cand >= ranges[i+1].Hi {
			cand = b // snapping would empty a stripe: keep the exact split
		}
		ranges[i] = Range{lo, cand}
		lo = cand
	}
	ranges[k-1] = Range{lo, n}
}

// snapToSegment rounds boundary b to the nearest multiple of quantum
// relative to the start of the segment containing b, clamped to the
// segment's end (the next start, or n).
func snapToSegment(b, quantum int, starts []int, n int) int {
	s, e := 0, n
	for _, st := range starts {
		if st <= b && st >= s {
			s = st
		}
		if st > b && st < e {
			e = st
		}
	}
	cand := s + (b-s+quantum/2)/quantum*quantum
	if cand > e {
		cand = e
	}
	return cand
}

// Workers returns the number of workers in the pool.
func (p *Pool) Workers() int { return p.workers }

// Ranges returns the per-worker pattern ranges.
func (p *Pool) Ranges() []Range { return p.ranges }

// Dispatches returns the number of jobs posted so far, inline or
// published. The traversal-descriptor engine exists to keep this counter
// growing per *traversal* rather than per node.
func (p *Pool) Dispatches() int64 { return p.dispatches.Load() }

// Counters returns how the dispatches so far were run. Which goroutine
// took a range differs run to run, so Taken and Wakes are diagnostics,
// never part of a result. It waits out a post in flight on another
// goroutine, so it must not be called from inside a job.
func (p *Pool) Counters() Counters {
	p.postMu.Lock()
	defer p.postMu.Unlock()
	return p.counters
}

// Slot returns worker w's reduction slot. Kernels write partials here
// during a job; the master reads them after the barrier via SumSlots.
func (p *Pool) Slot(w int) *[SlotWidth]float64 { return &p.slots[w].v }

// SumSlots combines slot index i across workers in worker order —
// deterministic regardless of completion order, so results are
// bit-identical run to run at a fixed worker count.
func (p *Pool) SumSlots(i int) float64 {
	sum := 0.0
	for w := 0; w < p.workers; w++ {
		sum += p.slots[w].v[i]
	}
	return sum
}

// SumSlots2 combines two slot indices at once (first and second
// derivatives share one traversal in makenewz).
func (p *Pool) SumSlots2(i, j int) (float64, float64) {
	var a, b float64
	for w := 0; w < p.workers; w++ {
		a += p.slots[w].v[i]
		b += p.slots[w].v[j]
	}
	return a, b
}

// EnsureWide sizes the variable-width reduction storage to at least
// `width` float64 per worker (rows padded to whole cache lines). Must
// not be called concurrently with a posted job. Engines call it once at
// construction — e.g. one slot per alignment partition, so JobEvaluate
// can return every partition's log-likelihood component from a single
// dispatch instead of needing a follow-up per-pattern pass.
func (p *Pool) EnsureWide(width int) {
	if width <= p.wideWidth {
		return
	}
	p.postMu.Lock()
	defer p.postMu.Unlock()
	p.wideWidth = width
	p.wideStride = (width + wideQuantum - 1) / wideQuantum * wideQuantum
	p.wide = make([]float64, p.workers*p.wideStride)
}

// WideSlot returns worker w's wide reduction row (length as passed to
// EnsureWide). Kernels must overwrite every entry they own each job —
// rows are not cleared between posts.
func (p *Pool) WideSlot(w int) []float64 {
	base := w * p.wideStride
	return p.wide[base : base+p.wideWidth : base+p.wideWidth]
}

// SumWide combines wide-slot index i across workers in worker order,
// deterministically, like SumSlots.
func (p *Pool) SumWide(i int) float64 {
	sum := 0.0
	for w := 0; w < p.workers; w++ {
		sum += p.wide[w*p.wideStride+i]
	}
	return sum
}

// ForkJoinRange runs fn over [lo, hi) split into contiguous chunks of at
// least `grain` items, at most one per worker, and returns when all
// chunks finished. This is a *master-side* utility for serial-bottleneck
// precomputation between two posts (the per-entry P-matrix fill of a
// traversal descriptor, the per-candidate fill of an insertion scan; the
// pipelined dispatch path fills one descriptor window at a time while
// earlier windows are already on the wire). The chunks are the closure
// job's ranges and go through the same claim cells, but a fork never
// wakes a parked helper: a hot crew shares the fill, a cold one leaves
// every chunk to the master. The fork is NOT a counted dispatch — it
// posts no job code and leaves Dispatches alone, and the
// one-dispatch-per-traversal accounting of the descriptor engine counts
// job codes only. fn must confine writes to its [lo, hi) chunk. Small
// inputs (fewer than 2·grain items), single-worker pools and crews built
// on one P run inline on the caller; no call allocates.
func (p *Pool) ForkJoinRange(lo, hi, grain int, fn func(lo, hi int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := min(p.workers, n/grain)
	if chunks <= 1 || p.oneP {
		fn(lo, hi)
		return
	}
	p.postMu.Lock()
	if p.closed {
		p.postMu.Unlock()
		panic("threads: fork on closed Pool")
	}
	p.fork.lo, p.fork.n, p.fork.chunks, p.fork.fn = lo, n, chunks, fn
	p.run(nil, jobClosure, p.forkFn, false, p.assign.Load())
	p.fork.fn = nil
	p.postMu.Unlock()
}

// runFork is the closure-job body of a fork: worker w runs chunk w of
// the window, chunks differing in size by at most one item (SplitEven's
// arithmetic, without the slice).
func (p *Pool) runFork(w int, _ Range) {
	f := &p.fork
	if w >= f.chunks {
		return
	}
	base, rem := f.n/f.chunks, f.n%f.chunks
	lo := f.lo + w*base + min(w, rem)
	hi := lo + base
	if w < rem {
		hi++
	}
	f.fn(lo, hi)
}

// Close shuts the worker goroutines down. The pool must not be used
// afterwards. Closing an inline pool or closing twice is a no-op.
func (p *Pool) Close() {
	p.postMu.Lock()
	defer p.postMu.Unlock()
	if p.closed || p.workers == 1 {
		p.closed = true
		return
	}
	p.closed = true
	p.stop.Store(true)
	p.jobMu.Lock()
	p.jobCond.Broadcast()
	p.jobMu.Unlock()
	p.wg.Wait()
}

// SplitEven partitions [0, n) into k contiguous ranges differing in size
// by at most 1.
func SplitEven(n, k int) []Range {
	if k < 1 {
		panic(fmt.Sprintf("threads: SplitEven with k=%d", k))
	}
	out := make([]Range, k)
	base := n / k
	rem := n % k
	lo := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		out[i] = Range{lo, lo + size}
		lo += size
	}
	return out
}

// SplitWeighted partitions [0, n) into k contiguous ranges of
// approximately equal total weight using a greedy threshold sweep.
// Zero-weight prefixes/suffixes land in the adjacent range.
func SplitWeighted(weights []int, k int) []Range {
	n := len(weights)
	if k < 1 {
		panic(fmt.Sprintf("threads: SplitWeighted with k=%d", k))
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return SplitEven(n, k)
	}
	out := make([]Range, k)
	lo := 0
	acc := 0
	for i := 0; i < k; i++ {
		target := (total*(i+1) + k/2) / k
		hi := lo
		for hi < n && acc < target {
			acc += weights[hi]
			hi++
		}
		if i == k-1 {
			hi = n
		}
		out[i] = Range{lo, hi}
		lo = hi
	}
	return out
}
