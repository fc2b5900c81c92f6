package likelihood

import (
	"fmt"

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

// fillPipeliner is implemented by Dispatchers that interleave the
// master-side P-matrix fill with frame encoding and shipping
// (finegrain.Pool): prepareTraversal then defers the fill, and the pool
// drives it chunk by chunk through WireMaster.FillTravChunk so P-fills
// of later descriptor entries overlap the scatter of earlier ones.
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
	e.trav = append(e.trav, travEntry{pub: TraversalEntry{
		Node: node, Slot: slot,
		C1: children[0], C1Slot: childSlots[0],
		C2: children[1], C2Slot: childSlots[1],
		Len1: lengths[0], Len2: lengths[1],
	}})
	e.valid[idx] = true
}

// childOf resolves a descriptor child to its executable form, binding
// arena tiles as needed (master-side only).
func (e *Engine) childOf(node, slot int) travChild {
	n := &e.tree.Nodes[node]
	if n.IsTip() {
		return travChild{tip: true, taxon: n.Taxon}
	}
	off := e.clvOffset(node, slot)
	return travChild{off: off, scaleOff: e.scaleOffset(node, slot)}
}

// fillTipLUT precomputes the left/right contribution of a tip child for
// every ambiguity code the taxon actually uses (mask bit per code):
// lut[(code*nc + c)*4 + s] = Σ_{j in code} P_c[s][j]. The per-pattern
// kernel work for a tip child collapses to four loads. Summation visits
// states in increasing order, exactly like the matrix-vector product
// over a 0/1 tip CLV it replaces, so results are bit-identical. Plain
// unambiguous codes (the overwhelming majority) are straight P-column
// copies. For partitioned engines this is called once per partition
// with that partition's matrix and LUT blocks.
func fillTipLUT(lut []float64, pm [][16]float64, mask uint16) {
	nc := len(pm)
	for c := 0; c < nc; c++ {
		p := &pm[c]
		for code := 1; code < 16; code++ {
			if mask&(1<<uint(code)) == 0 {
				continue
			}
			base := (code*nc + c) * 4
			if code&(code-1) == 0 {
				// single state: the P column itself
				j := 0
				for code>>uint(j+1) != 0 {
					j++
				}
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
// arena, resolves child offsets (earlier entries' destinations become
// later entries' inputs) and carves each entry's matrix and lookup
// slices out of the shared arenas — work that mutates engine state and
// must stay on the master. The second pass fills every entry's
// per-partition transition matrices and tip lookup tables; entries are
// independent there, so all but the shortest descriptors fork the fill
// over the crew (no job code is posted — see the file comment on
// dispatch accounting). Workers only ever read the result.
func (e *Engine) prepareTraversal() {
	n := len(e.trav)
	if n == 0 {
		return
	}
	e.ensureP()
	nc := e.totalCats
	need := 2 * nc * n
	if cap(e.travP) < need {
		e.travP = make([][16]float64, need)
	}
	e.travP = e.travP[:need]

	// Size the tip-lookup arena: one 16 x nc x 4 table (all partitions'
	// blocks) per tip child.
	lutSize := 16 * nc * 4
	tips := 0
	for i := range e.trav {
		if e.tree.Nodes[e.trav[i].pub.C1].IsTip() {
			tips++
		}
		if e.tree.Nodes[e.trav[i].pub.C2].IsTip() {
			tips++
		}
	}
	if cap(e.travLUT) < tips*lutSize {
		e.travLUT = make([]float64, tips*lutSize)
	}
	e.travLUT = e.travLUT[:tips*lutSize]

	off := 0
	lutOff := 0
	for i := range e.trav {
		ent := &e.trav[i]
		ent.dstOff = e.clvOffset(ent.pub.Node, ent.pub.Slot)
		ent.dstScaleOff = e.scaleOffset(ent.pub.Node, ent.pub.Slot)
		ent.left = e.childOf(ent.pub.C1, ent.pub.C1Slot)
		ent.right = e.childOf(ent.pub.C2, ent.pub.C2Slot)
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
	if fp, ok := e.pool.(fillPipeliner); ok && fp.PipelinesFill() && !e.perNodeDispatch {
		// Deferred: the pool interleaves FillTravChunk with the chunked
		// encode so P-fills overlap the scatter. Per-node ablation mode
		// posts entry-sized windows and fills them one Post at a time,
		// so it must not defer here.
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

// FillTravChunk fills P matrices and tip LUTs for the window-relative
// descriptor range [lo, hi) of a deferred (pipelined) fill. Idempotent:
// already-filled prefixes are skipped, so re-posting a window (per-node
// ablation) or a no-op pool (non-deferred prepare) costs nothing. Part
// of the WireMaster contract.
func (e *Engine) FillTravChunk(lo, hi int) {
	lo += e.travLo
	hi += e.travLo
	if lo < e.travFillNext {
		lo = e.travFillNext
	}
	if hi <= lo {
		return
	}
	e.fillTravWindow(lo, hi)
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
		npc := ps.rates.NumCats()
		if ent.lutL != nil {
			fillTipLUT(ent.lutL[64*ps.pOff:64*(ps.pOff+npc)], ent.pL[ps.pOff:ps.pOff+npc], e.tipCodeMask[ent.left.taxon])
		}
		if ent.lutR != nil {
			fillTipLUT(ent.lutR[64*ps.pOff:64*(ps.pOff+npc)], ent.pR[ps.pOff:ps.pOff+npc], e.tipCodeMask[ent.right.taxon])
		}
	}
}

// fillWireIdxMatrices fills entries e.wireFillIdx[k0:k1] — the
// worker-side fill over only the freshly shipped (non-ref) entries of a
// delta descriptor.
func (e *Engine) fillWireIdxMatrices(k0, k1 int) {
	for k := k0; k < k1; k++ {
		e.fillTravEntry(e.wireFillIdx[k])
	}
}

// dispatch posts the prepared descriptor (and the follow-on kernel
// selected by code) to the pool. Batched mode — the default — posts
// everything as one job: one barrier crossing per traversal. Per-node
// mode posts every descriptor entry as its own job, reproducing the
// pre-descriptor dispatch cost for benchmarking (BenchmarkTraversalDispatch).
func (e *Engine) dispatch(code threads.JobCode) {
	n := len(e.trav)
	if e.perNodeDispatch {
		for i := 0; i < n; i++ {
			e.travLo, e.travHi = i, i+1
			e.pool.Post(e, threads.JobNewview)
			if e.pool.Aborted() {
				e.rollbackTraversal()
				return
			}
		}
		e.travLo, e.travHi = n, n
		if code != threads.JobNewview {
			e.pool.Post(e, code)
		}
		if e.pool.Aborted() {
			e.rollbackTraversal()
		}
		return
	}
	if code == threads.JobNewview && n == 0 {
		return // nothing stale, nothing to post
	}
	e.travLo, e.travHi = 0, n
	e.pool.Post(e, code)
	if e.pool.Aborted() {
		e.rollbackTraversal()
	}
}

// rollbackTraversal un-marks every CLV the current descriptor promised
// to compute. queueTraversal flags CLVs valid at plan time; when a job
// is aborted mid-walk some of them were never written (and workers may
// disagree on how far they got), so the whole plan must be re-marked
// stale or later evaluations would silently read garbage. The aborted
// job's own result is meaningless and must be discarded by the caller.
func (e *Engine) rollbackTraversal() {
	for i := range e.trav {
		e.valid[e.trav[i].pub.Node*3+e.trav[i].pub.Slot] = false
	}
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
// its children, so ranges never interact. Polls the pool's abort flag
// between entries.
func (e *Engine) walkTraversal(r threads.Range) {
	for i := e.travLo; i < e.travHi; i++ {
		if e.pool.Aborted() {
			return
		}
		e.newviewRange(&e.trav[i], r)
	}
}

// RunJob implements threads.JobRunner: the engine executes posted job
// codes over one worker's pattern range. Every code first walks the
// pending traversal window (usually the whole descriptor; empty for
// pure reductions), then runs its own kernel, writing reduction
// partials into the worker's preallocated slot (or its wide row, for
// the per-partition and per-candidate reductions). If the job was
// aborted the follow-on kernel is skipped and the slot zeroed: the
// master rolls the descriptor back (rollbackTraversal) and the job's
// result is discarded.
func (e *Engine) RunJob(code threads.JobCode, w int, r threads.Range) {
	e.walkTraversal(r)
	if e.pool.Aborted() {
		s := e.pool.Slot(w)
		s[0], s[1] = 0, 0
		return
	}
	switch code {
	case threads.JobNewview:
		// descriptor walk only
	case threads.JobEvaluate:
		e.pool.Slot(w)[0] = e.evaluateRange(w, r)
	case threads.JobMakenewz:
		s := e.pool.Slot(w)
		s[0], s[1] = e.derivativesRange(r)
	case threads.JobMakenewzSetup:
		e.makenewzSetupRange(w, r)
		s := e.pool.Slot(w)
		if e.gatherSumtable {
			// Whoever gathers the rows sums over the whole axis itself.
			s[0], s[1] = 0, 0
		} else {
			s[0], s[1] = e.makenewzCoreRange(w, r)
		}
	case threads.JobMakenewzCore:
		s := e.pool.Slot(w)
		s[0], s[1] = e.makenewzCoreRange(w, r)
	case threads.JobSiteLL:
		e.siteLLRange(w, r)
	case threads.JobInsertScan:
		e.insertScanRange(w, r)
	default:
		panic(fmt.Sprintf("likelihood: unknown job code %d", code))
	}
}

// JobWork implements threads.WorkEstimator: the kernel steps per pattern
// of the job about to be posted — one per descriptor entry in the window,
// one for the reduction kernel that follows it (two per candidate and one
// pendant product for a scan) — times the CLV categories every step
// covers. The pool runs a job too short to share on the master alone.
func (e *Engine) JobWork(code threads.JobCode) int {
	steps := e.travHi - e.travLo
	switch code {
	case threads.JobNewview:
	case threads.JobInsertScan:
		steps += 2*len(e.scanCands) + 1
	default:
		steps++
	}
	return steps * e.nCat
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
