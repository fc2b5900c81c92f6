package likelihood

import (
	"fmt"
	"math/bits"

	"raxml/internal/msa"
	"raxml/internal/threads"
)

// This file implements the traversal-descriptor job engine: the batched
// replacement for per-node kernel dispatch. Mirroring RAxML's
// traversalInfo machinery, the master separates *planning* from
// *execution*: it walks the tree once to collect the ordered list of
// stale directed CLVs (children before parents) together with their
// child references and branch lengths, precomputes every entry's
// transition matrices — one set per (entry, partition, category), since
// a multi-gene alignment evolves every partition under its own model —
// and then posts the whole descriptor to the worker pool as ONE job.
// Each worker walks the full descriptor over its private pattern range;
// because pattern k of a parent CLV depends only on pattern k of its
// children, no intra-walk barrier is needed. A full-tree relikelihood
// therefore costs exactly one barrier crossing instead of O(nodes)
// crossings — partitioned or not — the synchronization amortization the
// paper's Pthreads layer relies on.
//
// Entries are resolved to *flat arena offsets*, not slice headers: a
// worker materializes its own pattern stripe of the destination and
// child tile segments at execution time. Tip children are additionally
// resolved to per-(entry, partition) lookup tables (RAxML's
// tipVector/umpX tables): the P-matrix row sums for all 16 ambiguity
// codes are precomputed by the master, so the kernel replaces a 4x4
// matrix-vector product per pattern with four loads.
//
// The matrix fill is the descriptor engine's only serial master-side
// O(entries) work, and partitioning multiplies it by the partition
// count. It goes through the transition-matrix memo (pmemo.go): a serial
// pass looks every branch length up, and only the blocks the memo missed
// are computed — forked over the crew (threads.Pool.ForkJoinRange) from
// a handful of them on. The fork posts no job code and is not a counted
// dispatch: the one-dispatch-per-traversal accounting counts job codes,
// and stays exact.
//
// The descriptor buffer, its transition-matrix arena, the tip-lookup
// arena, and the pool's reduction slots are all reused across jobs, so
// steady-state posting allocates nothing (after the engine's CLV arena
// is warm).

// TraversalEntry is one step of a traversal descriptor: compute the
// directed CLV (Node, Slot) from children (C1, C1Slot) and (C2, C2Slot)
// across branches of length Len1 and Len2. The exported view exists for
// tests and diagnostics; execution uses the resolved internal form.
type TraversalEntry struct {
	Node, Slot int
	C1, C1Slot int
	C2, C2Slot int
	Len1, Len2 float64
}

// travChild is one resolved input of a newview combination: either a
// tip (identified by its taxon; the kernel reads the pattern codes and
// the entry's lookup table) or an internal directed CLV identified by
// its flat arena offsets.
type travChild struct {
	tip      bool
	taxon    int // tip: row into the pattern matrix
	off      int // internal: float64 offset of the child tile
	scaleOff int // internal: int32 offset of the child's scale counters
}

// travEntry is a TraversalEntry resolved for execution: arena offsets
// and lookup tables are bound by the master in prepareTraversal so
// workers never touch the engine's allocation paths.
type travEntry struct {
	pub         TraversalEntry
	left, right travChild
	dstOff      int // float64 offset of the destination tile
	dstScaleOff int // int32 offset of the destination scale counters
	// pL, pR are this entry's transition matrices, indexed
	// [partition.pOff + category] (subslices of the engine's arena):
	// branch lengths are linked, but every partition's model produces
	// its own matrices.
	pL, pR [][16]float64
	// lutL, lutR are the tip lookup tables, one 16-code block per
	// partition at [64*partition.pOff] (subslices of e.travLUT); nil
	// for internal children.
	lutL, lutR []float64
	// memoL, memoR say how pL and pR get filled (pmemo.go); set by
	// planTravEntry just before the fill runs.
	memoL, memoR memoRef
}

// pFillGrain is the smallest chunk — in descriptor entries, or in scan
// candidates — the master-side matrix fill hands one worker, and the
// fewest blocks per chunk the memo must have missed for the fill to fork
// at all: copying hits and filling tip LUTs is not worth a crossing.
const pFillGrain = 2

// fillPipeliner is implemented by Dispatchers that ship a job frame
// before the master's own P-matrix fill (finegrain.Pool):
// prepareTraversal then defers the fill, and the pool completes it through
// WireMaster.FillTravChunk once the frame is on the wire, so the fill
// overlaps the ranks' receive.
type fillPipeliner interface {
	PipelinesFill() bool
}

// beginTraversal resets the descriptor buffer for a new plan. The
// backing array is retained: one engine reuses one descriptor buffer
// across its whole life (every replicate of the bootstrap loop).
func (e *Engine) beginTraversal() {
	e.trav = e.trav[:0]
	e.travLo, e.travHi = 0, 0
	e.travFillNext = 0
}

// queueTraversal appends, post-order, every stale directed CLV needed
// for the view (node, slot) and marks it valid — validity now means
// "computed, or queued in the descriptor about to be executed".
func (e *Engine) queueTraversal(node, slot int) {
	n := &e.tree.Nodes[node]
	if n.IsTip() {
		return
	}
	idx := node*3 + slot
	if e.valid[idx] {
		return
	}
	var children [2]int
	var childSlots [2]int
	var lengths [2]float64
	j := 0
	for s, v := range n.Neighbors {
		if s == slot || v < 0 {
			continue
		}
		children[j] = v
		childSlots[j] = e.slotOf(v, node)
		lengths[j] = n.Lengths[s]
		j++
	}
	if j != 2 {
		panic(fmt.Sprintf("likelihood: internal node %d has %d usable children", node, j))
	}
	e.queueTraversal(children[0], childSlots[0])
	e.queueTraversal(children[1], childSlots[1])
	e.trav = append(e.trav, travEntry{
		pub: TraversalEntry{
			Node: node, Slot: slot,
			C1: children[0], C1Slot: childSlots[0],
			C2: children[1], C2Slot: childSlots[1],
			Len1: lengths[0], Len2: lengths[1],
		},
		left: e.tipChild(children[0]), right: e.tipChild(children[1]),
	})
	e.valid[idx] = true
}

// tipChild is the descriptor child node as the master's tree has it: a
// tip with its taxon, or an internal CLV whose offsets prepareTraversal
// resolves.
func (e *Engine) tipChild(node int) travChild {
	n := &e.tree.Nodes[node]
	return travChild{tip: n.IsTip(), taxon: n.Taxon}
}

// fillTipLUT precomputes the left/right contribution of a tip child for
// every ambiguity code the taxon actually uses (codes, from
// Engine.tipCodes): lut[(code*nc + c)*4 + s] = Σ_{j in code} P_c[s][j].
// The per-pattern kernel work for a tip child collapses to four loads.
// Summation visits states in increasing order, exactly like the
// matrix-vector product over a 0/1 tip CLV it replaces, so results are
// bit-identical. Plain unambiguous codes (the overwhelming majority) are
// straight P-column copies. For partitioned engines this is called once
// per partition with that partition's matrix and LUT blocks.
func fillTipLUT(lut []float64, pm [][16]float64, codes []msa.State) {
	nc := len(pm)
	for c := range pm {
		p := &pm[c]
		for _, code := range codes {
			base := (int(code)*nc + c) * 4
			if code&(code-1) == 0 {
				// single state: the P column itself
				j := bits.TrailingZeros8(uint8(code))
				lut[base+0] = p[0*4+j]
				lut[base+1] = p[1*4+j]
				lut[base+2] = p[2*4+j]
				lut[base+3] = p[3*4+j]
				continue
			}
			for s := 0; s < 4; s++ {
				sum := 0.0
				for j := 0; j < 4; j++ {
					if code&(1<<uint(j)) != 0 {
						sum += p[s*4+j]
					}
				}
				lut[base+s] = sum
			}
		}
	}
}

// prepareTraversal resolves the queued descriptor for execution in two
// passes. The first, serial, pass binds destination tiles in the CLV
// arena, resolves internal children's offsets (earlier entries'
// destinations become later entries' inputs) and carves each entry's
// matrix and lookup slices out of the shared arenas — work that mutates
// engine state and must stay on the master. The second pass fills every
// entry's per-partition transition matrices and tip lookup tables;
// entries are independent there, so all but the shortest descriptors
// fork the fill over the crew (no job code is posted — see the file
// comment on dispatch accounting). Workers only ever read the result.
// Tip children come marked in the entries — from the tree on the master
// (queueTraversal), from the frame on a worker rank
// (prepareWireTraversal) — so both plan a window the same way.
func (e *Engine) prepareTraversal() {
	n := len(e.trav)
	if n == 0 {
		return
	}
	e.ensureP()
	nc := e.totalCats
	e.travP = resize(e.travP, 2*nc*n)

	// Size the tip-lookup arena: one 16 x nc x 4 table (all partitions'
	// blocks) per tip child.
	lutSize := 16 * nc * 4
	tips := 0
	for i := range e.trav {
		if e.trav[i].left.tip {
			tips++
		}
		if e.trav[i].right.tip {
			tips++
		}
	}
	e.travLUT = resize(e.travLUT, tips*lutSize)

	off := 0
	lutOff := 0
	for i := range e.trav {
		ent := &e.trav[i]
		p := &ent.pub
		ent.dstOff, ent.dstScaleOff = e.clvOffset(p.Node, p.Slot), e.scaleOffset(p.Node, p.Slot)
		if !ent.left.tip {
			ent.left.off, ent.left.scaleOff = e.clvOffset(p.C1, p.C1Slot), e.scaleOffset(p.C1, p.C1Slot)
		}
		if !ent.right.tip {
			ent.right.off, ent.right.scaleOff = e.clvOffset(p.C2, p.C2Slot), e.scaleOffset(p.C2, p.C2Slot)
		}
		ent.pL = e.travP[off : off+nc]
		ent.pR = e.travP[off+nc : off+2*nc]
		off += 2 * nc
		ent.lutL, ent.lutR = nil, nil
		if ent.left.tip {
			ent.lutL = e.travLUT[lutOff : lutOff+lutSize]
			lutOff += lutSize
		}
		if ent.right.tip {
			ent.lutR = e.travLUT[lutOff : lutOff+lutSize]
			lutOff += lutSize
		}
	}
	e.newviewCount += int64(n)
	if fp, ok := e.pool.(fillPipeliner); ok && fp.PipelinesFill() {
		// Deferred: the pool ships the frame first and completes the fill
		// with FillTravChunk, so the P-fill overlaps the scatter.
		e.travFillNext = 0
		return
	}
	e.fillTravWindow(0, n)
}

// fillTravWindow fills the P matrices and tip LUTs of descriptor entries
// [lo, hi): a serial pass asks the memo about every branch length, then
// the fill computes only the blocks it missed.
func (e *Engine) fillTravWindow(lo, hi int) {
	e.memoSync()
	misses := 0
	for i := lo; i < hi; i++ {
		misses += e.planTravEntry(&e.trav[i])
	}
	e.forkFill(lo, hi, misses, e.fillTravFn)
	e.travFillNext = hi
}

// planTravEntry looks both branch lengths of an entry up in the memo and
// returns how many of the two blocks have to be computed.
func (e *Engine) planTravEntry(ent *travEntry) (misses int) {
	ent.memoL = e.memo.lookup(ent.pub.Len1)
	ent.memoR = e.memo.lookup(ent.pub.Len2)
	if !ent.memoL.hit {
		misses++
	}
	if !ent.memoR.hit {
		misses++
	}
	return misses
}

// forkFill runs a planned fill over [lo, hi) and commits the memo blocks
// it reserved: forked over the crew when the plan missed enough blocks to
// give every chunk pFillGrain of them, on the master otherwise.
func (e *Engine) forkFill(lo, hi, misses int, fill func(lo, hi int)) {
	if misses < 2*pFillGrain {
		fill(lo, hi)
	} else {
		e.pool.ForkJoinRange(lo, hi, max(pFillGrain, pFillGrain*(hi-lo)/misses), fill)
	}
	e.memo.commit()
}

// FillTravChunk completes the deferred P-matrix and tip-LUT fill of the
// posted window. Idempotent: entries already filled are skipped, so a
// window an eager prepare filled costs nothing, and the per-node ablation,
// which posts the descriptor one entry-sized window at a time, fills each
// entry as its window goes out. Part of the WireMaster contract.
func (e *Engine) FillTravChunk() {
	if lo := max(e.travLo, e.travFillNext); lo < e.travHi {
		e.fillTravWindow(lo, e.travHi)
	}
}

// fillTravMatrices computes the per-partition transition matrices and
// tip lookup tables of descriptor entries [i0, i1). Entries are
// mutually independent and every write lands in slices carved for this
// entry by prepareTraversal, so disjoint index ranges may run
// concurrently; the models' eigensystems are read-only here.
func (e *Engine) fillTravMatrices(i0, i1 int) {
	for i := i0; i < i1; i++ {
		e.fillTravEntry(i)
	}
}

// fillTravEntry fills one descriptor entry's matrices, as its plan says,
// and LUTs.
func (e *Engine) fillTravEntry(i int) {
	ent := &e.trav[i]
	e.fillBlock(ent.pub.Len1, ent.pL, ent.memoL)
	e.fillBlock(ent.pub.Len2, ent.pR, ent.memoR)
	for pi := range e.parts {
		ps := &e.parts[pi]
		if !ps.visited() {
			continue
		}
		npc := ps.rates.NumCats()
		if ent.lutL != nil {
			fillTipLUT(ent.lutL[64*ps.pOff:64*(ps.pOff+npc)], ent.pL[ps.pOff:ps.pOff+npc], e.tipCodes[ent.left.taxon])
		}
		if ent.lutR != nil {
			fillTipLUT(ent.lutR[64*ps.pOff:64*(ps.pOff+npc)], ent.pR[ps.pOff:ps.pOff+npc], e.tipCodes[ent.right.taxon])
		}
	}
}

// dispatch readies the job (prepJob) and posts the prepared descriptor
// (and the follow-on kernel selected by code) to the pool. Batched mode — the default — posts
// everything as one job: one barrier crossing per traversal. Per-node
// mode posts every descriptor entry as its own job, reproducing the
// pre-descriptor dispatch cost for benchmarking (BenchmarkTraversalDispatch).
func (e *Engine) dispatch(code threads.JobCode) {
	e.prepJob(&jobTable[code])
	n := len(e.trav)
	if e.perNodeDispatch {
		for i := 0; i < n; i++ {
			e.travLo, e.travHi = i, i+1
			e.pool.Post(e, threads.JobNewview)
		}
		e.travLo, e.travHi = n, n
		if code != threads.JobNewview {
			e.pool.Post(e, code)
		}
		return
	}
	if code == threads.JobNewview && n == 0 {
		return // nothing stale, nothing to post
	}
	e.travLo, e.travHi = 0, n
	e.pool.Post(e, code)
}

// refreshViews builds and executes one descriptor covering all the
// given directed views, leaving them fresh. One pool dispatch at most,
// zero if everything is already valid.
func (e *Engine) refreshViews(views ...[2]int) {
	e.beginTraversal()
	for _, v := range views {
		e.queueTraversal(v[0], v[1])
	}
	e.prepareTraversal()
	e.dispatch(threads.JobNewview)
}

// walkTraversal executes the posted descriptor window over one worker's
// pattern range: the worker-side half of the job engine. Entries run in
// descriptor order; pattern k of an entry depends only on pattern k of
// its children, so ranges never interact.
func (e *Engine) walkTraversal(r threads.Range) {
	for i := e.travLo; i < e.travHi; i++ {
		e.newviewRange(&e.trav[i], r)
	}
}

// jobSpec is everything one likelihood job code means, for the master
// that plans and posts it and for a worker rank that replays its frame:
// jobTable holds one entry per code, and the kernels, the wire codec and
// the distributed dispatcher read a code's meaning from there.
type jobSpec struct {
	// kernel runs over one worker's range after the descriptor walk,
	// writing its reduction partial into the worker's slot or wide row.
	kernel func(e *Engine, w int, r threads.Range)
	// steps are the kernel steps per pattern JobWork counts beyond the
	// descriptor, plus candSteps per scan candidate, each priced at the
	// code's row of the pool's cost table (threads.StepCost).
	steps, candSteps int
	// views is how many job views the frame ships (jobWire[:views]).
	views int
	// payload is the header block that follows the views.
	payload wirePayload
	// prep readies what the kernel reads beyond the views — matrices at
	// jobT, scratch — on the master before it posts and on a worker before
	// it runs the frame (prepJob).
	prep func(e *Engine)
	// partial is what a rank's partial carries beyond its two slots.
	partial partialShape
}

// wirePayload is the header block of a job frame after its views.
type wirePayload uint8

const (
	payloadNone    wirePayload = iota
	payloadCands               // the insertion-scan candidates
	payloadFactors             // the makenewz factor block
)

// partialShape is what a rank's reduction partial carries besides its
// two fixed slots: wide components or a per-pattern block.
type partialShape uint8

const (
	partialSlots partialShape = iota // nothing
	partialParts                     // one wide component per partition
	partialCands                     // one wide component per scan candidate
	partialSites                     // the stripe's site log-likelihoods
	partialRows                      // the stripe's sumtable rows, when the frame gathers
)

// jobTable is the job vocabulary of the likelihood engine, indexed by
// code. Adding a code, or changing what one ships, touches one entry.
var jobTable = [...]jobSpec{
	threads.JobNewview: {kernel: func(*Engine, int, threads.Range) {}},
	threads.JobEvaluate: {
		kernel: func(e *Engine, w int, r threads.Range) { e.pool.Slot(w)[0] = e.evaluateRange(w, r) },
		steps:  1, views: 2, prep: (*Engine).fillEvalP, partial: partialParts,
	},
	threads.JobMakenewz: {
		kernel: func(e *Engine, w int, r threads.Range) {
			s := e.pool.Slot(w)
			s[0], s[1] = e.derivativesRange(r)
		},
		steps: 1, views: 2, prep: (*Engine).fillDerivP,
	},
	threads.JobMakenewzSetup: {
		kernel: func(e *Engine, w int, r threads.Range) {
			e.makenewzSetupRange(w, r)
			// Whoever gathers the rows sums over the whole axis itself.
			s := e.pool.Slot(w)
			s[0], s[1] = 0, 0
			if !e.gatherSumtable {
				s[0], s[1] = e.makenewzCoreRange(w, r)
			}
		},
		steps: 1, views: 2, payload: payloadFactors, prep: (*Engine).ensureSumtable, partial: partialRows,
	},
	threads.JobMakenewzCore: {
		kernel: func(e *Engine, w int, r threads.Range) {
			s := e.pool.Slot(w)
			s[0], s[1] = e.makenewzCoreRange(w, r)
		},
		steps: 1, payload: payloadFactors, prep: (*Engine).ensureSumtable,
	},
	threads.JobSiteLL: {
		kernel: (*Engine).siteLLRange,
		steps:  1, views: 2, prep: (*Engine).fillEvalP, partial: partialSites,
	},
	threads.JobInsertScan: {
		kernel: (*Engine).insertScanRange,
		steps:  1, candSteps: 2, views: 1, payload: payloadCands, prep: (*Engine).prepareScan, partial: partialCands,
	},
}

// jobOf returns the table entry of a likelihood job code, nil for any
// other code.
func jobOf(code threads.JobCode) *jobSpec {
	if code < 0 || int(code) >= len(jobTable) || jobTable[code].kernel == nil {
		return nil
	}
	return &jobTable[code]
}

// prepJob resolves the job's views against the local arena and runs its
// prep: the one step of a job the master (dispatch) and a worker rank
// (ExecWireJob) share, so both hold identical matrices.
func (e *Engine) prepJob(s *jobSpec) {
	for i := 0; i < s.views; i++ {
		e.jobV[i] = e.wireChildView(e.jobWire[i])
	}
	if s.prep != nil {
		s.prep(e)
	}
}

// RunJob implements threads.JobRunner: the engine executes posted job
// codes over one worker's pattern range. Every code first walks the
// pending traversal window (usually the whole descriptor; empty for
// pure reductions), then runs its table kernel.
func (e *Engine) RunJob(code threads.JobCode, w int, r threads.Range) {
	e.walkTraversal(r)
	jobTable[code].kernel(e, w, r)
}

// JobWork implements threads.WorkEstimator: the predicted picoseconds
// per pattern of the job about to be posted — one newview step per
// descriptor entry in the window plus the code's own (jobSpec.steps,
// candSteps), each at its code's threads.StepCost — times the CLV
// categories every step covers, times the share of the span's patterns
// that are live: a range visits only those (compact.go). The pool runs a
// job that does not pay for the crossing on the master alone.
func (e *Engine) JobWork(code threads.JobCode) int {
	s := &jobTable[code]
	walk := (e.travHi - e.travLo) * threads.StepCost(threads.JobNewview)
	own := (s.steps + s.candSteps*len(e.scanCands)) * threads.StepCost(code)
	return (walk + own) * e.nCat * e.tileN / e.span.Len()
}

// SetPerNodeDispatch toggles the per-node dispatch ablation: when
// enabled, every descriptor entry is posted as a separate job (one
// barrier crossing per node, the pre-descriptor behaviour). Exists so
// benchmarks and tests can measure what batching buys; production code
// never enables it.
func (e *Engine) SetPerNodeDispatch(enabled bool) { e.perNodeDispatch = enabled }

// LastTraversal returns a copy of the most recently built traversal
// descriptor, for tests asserting construction and invalidation order.
func (e *Engine) LastTraversal() []TraversalEntry {
	out := make([]TraversalEntry, len(e.trav))
	for i := range e.trav {
		out[i] = e.trav[i].pub
	}
	return out
}
