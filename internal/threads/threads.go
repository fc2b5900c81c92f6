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
//   - Spin/park barrier. Workers wait for the next job generation by
//     spinning briefly on an atomic counter (the hot path inside tight
//     optimization loops, where the next job arrives within
//     microseconds) and park on a condition variable when the master
//     goes quiet. The master symmetrically spin-waits for job
//     completion. One Post is one barrier crossing; Dispatches counts
//     them, making synchronization overhead a measurable quantity.
//
//   - Reduction slots. Every worker owns a cache-line padded slot of
//     float64 accumulators, preallocated at pool construction. Kernels
//     write partial sums into their slot; the master combines them in
//     worker order (SumSlots), keeping reductions deterministic and
//     allocation-free.
//
// A Pool with W workers partitions [0, n) patterns into W contiguous
// ranges balanced by pattern weight mass. The master executes range 0
// on the posting goroutine itself; W-1 helper goroutines cover the
// rest. A Pool with 1 worker executes inline on the caller's goroutine:
// the serial code path is literally the same code, as in RAxML where
// the standalone binary is the single-thread special case.
//
// ParallelFor and ReduceSum remain as closure-based conveniences for
// tests and one-off kernels; they run through the same job engine under
// a reserved internal job code.
package threads

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
	// jobClosure is the reserved internal code behind ParallelFor.
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
	// JobParsimony walks a Fitch descriptor and reduces the parsimony
	// score partial.
	JobParsimony
)

// JobRunner executes posted job codes. The runner owns all job data
// (descriptors, scratch matrices, destination buffers); RunJob must
// confine writes to the worker's pattern range and the worker's
// reduction slot.
type JobRunner interface {
	RunJob(code JobCode, worker int, r Range)
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

// spinIters bounds the busy-wait before a waiter parks on its condition
// variable. Within tight optimization loops the next job arrives in
// well under this budget; between jobs (master doing serial work) the
// crew parks and costs nothing.
const spinIters = 4096

// Pool is a crew of persistent workers executing pattern-parallel jobs.
// The zero value is not usable; construct with NewPool. A Pool must be
// Closed when no longer needed, except the inline single-worker pool.
// Posting is single-master: only one goroutine may post jobs at a time.
type Pool struct {
	workers int
	ranges  []Range
	slots   []slot

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

	gen     atomic.Uint64 // job generation counter
	arrived atomic.Int64  // helpers finished with the current job
	abort   atomic.Bool   // cooperative cancel of the current job
	stop    atomic.Bool   // pool shutdown

	dispatches atomic.Int64 // total barrier crossings (Posts)

	jobMu   sync.Mutex // guards worker parking on jobCond
	jobCond *sync.Cond
	barMu   sync.Mutex // guards master parking on barCond
	barCond *sync.Cond

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

// NewPoolPartitioned creates a pool for a partitioned (multi-gene)
// pattern axis: ranges balance total pattern weight (as NewPoolWeighted)
// and stripe boundaries are immediately snapped to quantum multiples
// relative to the partition starts (as AlignRangesAt), so one job
// posting covers the concatenated (partition, pattern-stripe) units
// with weighted, cache-aligned stripes that never split a cache line
// inside any partition's tile segment.
func NewPoolPartitioned(workers int, weights []int, starts []int, quantum int) *Pool {
	p := NewPoolWeighted(workers, weights)
	p.AlignRangesAt(quantum, starts)
	return p
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
	ranges := SplitWeighted(weights[lo:hi], w)
	for i := range ranges {
		ranges[i].Lo += lo
		ranges[i].Hi += lo
	}
	return newPool(w, ranges)
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
	p.forkFn = p.runFork
	p.jobCond = sync.NewCond(&p.jobMu)
	p.barCond = sync.NewCond(&p.barMu)
	for w := 1; w < workers; w++ {
		p.wg.Add(1)
		go p.workerLoop(w)
	}
	return p
}

// workerLoop is the life of one helper worker: wait for a job
// generation, execute the job over the worker's range, report arrival.
func (p *Pool) workerLoop(w int) {
	defer p.wg.Done()
	var seen uint64
	for {
		if !p.awaitJob(&seen) {
			return
		}
		// Re-read the stripe each job: AlignRanges may have snapped the
		// boundaries after this worker started (the master's generation
		// bump orders that write before this read).
		p.execute(w, p.ranges[w])
		if p.arrived.Add(1) == int64(p.workers-1) {
			// Last helper: wake the master if it parked.
			p.barMu.Lock()
			p.barCond.Broadcast()
			p.barMu.Unlock()
		}
	}
}

// awaitJob blocks until a job generation newer than *seen is posted
// (spin first, then park) and records it. Returns false on shutdown.
func (p *Pool) awaitJob(seen *uint64) bool {
	for i := 0; i < spinIters; i++ {
		if g := p.gen.Load(); g != *seen {
			*seen = g
			return true
		}
		if p.stop.Load() {
			return false
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
	p.jobMu.Lock()
	for {
		if g := p.gen.Load(); g != *seen {
			p.jobMu.Unlock()
			*seen = g
			return true
		}
		if p.stop.Load() {
			p.jobMu.Unlock()
			return false
		}
		p.jobCond.Wait()
	}
}

// execute runs the current job for one worker.
func (p *Pool) execute(w int, r Range) {
	if p.code == jobClosure {
		p.fn(w, r)
	} else {
		p.runner.RunJob(p.code, w, r)
	}
}

// Post runs one job code on every worker over its pattern range and
// returns when all workers have finished (one barrier crossing). The
// job's inputs must already be stored in the runner; posting allocates
// nothing. The abort flag is cleared on entry.
func (p *Pool) Post(runner JobRunner, code JobCode) {
	p.post(runner, code, nil)
}

// post is the counted dispatch behind Post and ParallelFor: serialize on
// postMu, count the barrier crossing, clear the abort flag and run.
func (p *Pool) post(runner JobRunner, code JobCode, fn func(worker int, r Range)) {
	p.postMu.Lock()
	if p.closed {
		p.postMu.Unlock()
		panic("threads: job posted on closed Pool")
	}
	p.dispatches.Add(1)
	p.abort.Store(false)
	p.run(runner, code, fn)
	p.postMu.Unlock()
}

// run is the single publish/barrier sequence behind every job, counted
// (post) or not (ForkJoinRange): publish the job, run the master's own
// range, and wait out the crew. Caller holds postMu.
func (p *Pool) run(runner JobRunner, code JobCode, fn func(worker int, r Range)) {
	p.runner, p.code, p.fn = runner, code, fn
	if p.workers == 1 {
		p.execute(0, p.ranges[0])
		return
	}
	p.release()
	p.execute(0, p.ranges[0]) // the master is worker 0
	p.awaitCrew()
}

// release publishes the current job to the crew: reset the arrival
// counter, bump the generation, wake parked workers.
func (p *Pool) release() {
	p.arrived.Store(0)
	p.jobMu.Lock()
	p.gen.Add(1)
	p.jobCond.Broadcast()
	p.jobMu.Unlock()
}

// awaitCrew blocks until every helper finished the current job: spin
// first (the helpers finish within microseconds of the master on
// balanced ranges), then park.
func (p *Pool) awaitCrew() {
	want := int64(p.workers - 1)
	for i := 0; i < spinIters; i++ {
		if p.arrived.Load() == want {
			return
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
	p.barMu.Lock()
	for p.arrived.Load() != want {
		p.barCond.Wait()
	}
	p.barMu.Unlock()
}

// AlignRanges snaps the pool's internal stripe boundaries to multiples
// of quantum patterns. Engines whose buffers tile the pattern axis call
// this once so that no two workers ever write the same cache line of a
// tile (e.g. a GTRCAT CLV packs two 32-byte patterns per 64-byte line:
// quantum 2 keeps stripe edges off shared lines). Equivalent to
// AlignRangesAt with a single segment covering the whole axis.
func (p *Pool) AlignRanges(quantum int) {
	p.AlignRangesAt(quantum, nil)
}

// AlignRangesAt snaps the pool's stripe boundaries to quantum-pattern
// multiples *relative to segment starts* — the partition-aware form of
// AlignRanges. `starts` lists the pattern-axis offsets where aligned
// segments begin (a partitioned CLV arena pads each partition's segment
// to whole cache lines, so alignment is only meaningful relative to the
// containing partition's start); nil or empty means one segment at 0.
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

// Dispatches returns the number of jobs posted so far — the number of
// barrier crossings paid. The traversal-descriptor engine exists to
// keep this counter growing per *traversal* rather than per node.
func (p *Pool) Dispatches() int64 { return p.dispatches.Load() }

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

// WideWidth returns the current wide-slot width (0 before EnsureWide).
func (p *Pool) WideWidth() int { return p.wideWidth }

// AbortJob requests cooperative cancellation of the job in flight.
// Long-running kernels poll Aborted between descriptor entries and
// bail out early; the barrier still completes normally, so the pool
// remains usable. The flag is cleared by the next Post. An aborted
// job's outputs (reduction slots, destination buffers) are undefined:
// callers must discard the result, and runners must restore any
// invariants they staged before posting (see the likelihood engine's
// rollbackTraversal).
func (p *Pool) AbortJob() { p.abort.Store(true) }

// Aborted reports whether the current job has been asked to stop.
func (p *Pool) Aborted() bool { return p.abort.Load() }

// ParallelFor executes fn once per worker over that worker's pattern
// range and returns when all workers finished (barrier semantics).
// fn must only write to data indexed within its range or to the
// per-worker slot it owns. This is the closure-based convenience path;
// hot engine loops post job codes instead.
func (p *Pool) ParallelFor(fn func(worker int, r Range)) {
	p.post(nil, jobClosure, fn)
}

// ReduceSum executes fn per worker and returns the sum of the per-worker
// results: the reduction pattern behind log-likelihood evaluation and
// branch-length derivative accumulation.
func (p *Pool) ReduceSum(fn func(worker int, r Range) float64) float64 {
	p.ParallelFor(func(w int, r Range) {
		p.slots[w].v[0] = fn(w, r)
	})
	return p.SumSlots(0)
}

// ReduceSum2 is ReduceSum for functions producing two sums at once.
func (p *Pool) ReduceSum2(fn func(worker int, r Range) (float64, float64)) (float64, float64) {
	p.ParallelFor(func(w int, r Range) {
		p.slots[w].v[0], p.slots[w].v[1] = fn(w, r)
	})
	return p.SumSlots2(0, 1)
}

// ForkJoin is ForkJoinRange over [0, n).
func (p *Pool) ForkJoin(n, grain int, fn func(lo, hi int)) {
	p.ForkJoinRange(0, n, grain, fn)
}

// ForkJoinRange runs fn over [lo, hi) split into contiguous chunks of at
// least `grain` items, at most one per worker, and returns when all
// chunks finished. This is a *master-side* utility for serial-bottleneck
// precomputation between two posts (the per-entry P-matrix fill of a
// traversal descriptor, the per-candidate fill of an insertion scan; the
// pipelined dispatch path fills one descriptor window at a time while
// earlier windows are already on the wire). The chunks run on the crew
// itself, through the closure job: a fill that outlasts the helpers'
// spin window would otherwise park them, and the next Post would pay a
// futex wake per helper. The fork is NOT a counted dispatch — it posts
// no job code, leaves Dispatches and the abort flag alone, and the
// one-barrier-per-traversal accounting of the descriptor engine counts
// job codes only — but it does cross the barrier once, so callers fork
// only work worth a crossing. fn must confine writes to its [lo, hi)
// chunk. Small inputs (fewer than 2·grain items) and single-worker pools
// run inline on the caller; no call allocates.
func (p *Pool) ForkJoinRange(lo, hi, grain int, fn func(lo, hi int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := min(p.workers, n/grain)
	if chunks <= 1 {
		fn(lo, hi)
		return
	}
	p.postMu.Lock()
	if p.closed {
		p.postMu.Unlock()
		panic("threads: fork on closed Pool")
	}
	p.fork.lo, p.fork.n, p.fork.chunks, p.fork.fn = lo, n, chunks, fn
	p.run(nil, jobClosure, p.forkFn)
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

// DefaultWorkers returns a sensible worker count for the host: the
// number of available CPUs, the quantity the paper calls "cores per
// node" when running one rank per node.
func DefaultWorkers() int { return runtime.NumCPU() }
