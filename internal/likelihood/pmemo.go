package likelihood

import (
	"math"
	"math/bits"
)

// This file is the transition-matrix memo: the serial share of a search
// the crew cannot touch. Most P(t·r_c) fills of a lazy-SPR pass repeat a
// branch length an earlier descriptor or scan already used — a prune
// changes three edges and re-walks dozens — so the engine keeps the
// blocks it computed, keyed by the bits of t, for as long as the model
// they were computed under stands. A hit copies the bytes the kernel
// table's pBlock (gtr.Model.P, bit for bit, transposed into the engine's
// column layout) wrote for the same (t, rate, eigensystem); no output bit
// can move.
//
// One memo per engine, no lock: an engine has one master goroutine, which
// does every lookup in the serial pass of a plan; the forked fill that
// follows only reads blocks filled by earlier plans and writes the blocks
// its own entries reserved, which are disjoint.

// memoBlocksPerTaxon sizes the block budget from the tree: an unrooted
// tree of n taxa has 2n−3 branch lengths and a scan halves the ones it
// inserts into, so a pass works on about 4n blocks and every prune adds a
// handful that die with it. At 6n the hit rate of the benchmark shapes is
// within two points of an unbounded table's (61 % against 64 % of the
// lookups on 50 taxa, 57 % against 63 % on 20); at 4n the 20-taxon shape
// falls to 38 %, emptied as soon as it is warm.
const memoBlocksPerTaxon = 6

// memoBypass is the process-wide reference policy engines capture at
// construction, like coarseInvalidation.
var memoBypass bool

// SetMemoBypass makes engines constructed afterwards — worker-rank
// engines included — compute every transition matrix afresh. It is the
// reference the memo is pinned to; production code never enables it.
func SetMemoBypass(on bool) { memoBypass = on }

// memoRef is what the serial pass decided for one matrix block: copy
// memo block blk (hit), compute and leave a copy in blk (blk ≥ 0), or
// just compute (blk < 0).
type memoRef struct {
	blk int32
	hit bool
}

// pMemo maps math.Float64bits(t) to a block of `cats` matrices — every
// partition's categories at the partitions' pOff offsets, the layout of
// pEval — valid for one (modelEpoch, totalCats).
type pMemo struct {
	// Open addressing over a power-of-two table twice the budget: cell i
	// holds block slots[i]−1 for length bits keys[i], 0 marking it empty.
	keys   []uint64
	slots  []int32
	shift  uint
	blocks [][16]float64

	budget int // blocks the table may hand out before it is emptied
	used   int // blocks handed out
	// Blocks [0, filled) hold their matrices; [filled, used) were reserved
	// by the plan in flight, whose fill has not run yet.
	filled int

	epoch uint64
	cats  int

	bypass bool
	// paused is set while OptimizeModel runs: every golden-section step
	// moves the model, so a block stored there would die unread at the
	// next memoSync. Paused, the memo answers as bypassed and keeps what
	// it holds, which the first plan after the pause drops as stale.
	paused bool
	// hits counts lookups answered from the table, resets the times a full
	// table was emptied (tests).
	hits, resets int64
}

// memoSync opens a plan: it empties the memo when the model or the
// category layout moved since the blocks were computed or when the last
// plan filled the table, and sizes it on first use. Call after ensureP.
func (e *Engine) memoSync() {
	m := &e.memo
	if m.bypass || m.paused {
		return
	}
	full := m.used == m.budget
	if m.epoch == e.modelEpoch && m.cats == e.totalCats && !full {
		return
	}
	if m.keys == nil {
		m.budget = memoBlocksPerTaxon * e.pat.NumTaxa()
		n := 1 << bits.Len(uint(2*m.budget-1))
		m.keys = make([]uint64, n)
		m.slots = make([]int32, n)
		m.shift = uint(64 - bits.Len(uint(n-1)))
	} else if full && m.epoch == e.modelEpoch && m.cats == e.totalCats {
		m.resets++
	}
	if need := m.budget * e.totalCats; cap(m.blocks) < need {
		m.blocks = make([][16]float64, need)
	} else {
		m.blocks = m.blocks[:need]
	}
	clear(m.slots)
	m.used, m.filled = 0, 0
	m.epoch, m.cats = e.modelEpoch, e.totalCats
}

// lookup decides how the block for branch length t gets filled; master
// only, between memoSync and commit.
func (m *pMemo) lookup(t float64) memoRef {
	if m.bypass || m.paused {
		return memoRef{blk: -1}
	}
	key := math.Float64bits(t)
	mask := len(m.slots) - 1
	i := int(key * 0x9E3779B97F4A7C15 >> m.shift)
	for ; m.slots[i] != 0; i = (i + 1) & mask {
		if m.keys[i] != key {
			continue
		}
		if blk := m.slots[i] - 1; int(blk) < m.filled {
			m.hits++
			return memoRef{blk: blk, hit: true}
		}
		// Reserved by an earlier entry of this plan, which may be filling
		// it on another goroutine: compute a private copy.
		return memoRef{blk: -1}
	}
	if m.used == m.budget {
		return memoRef{blk: -1} // full; the next memoSync empties it
	}
	m.keys[i], m.slots[i] = key, int32(m.used+1)
	m.used++
	return memoRef{blk: int32(m.used - 1)}
}

// commit closes a plan whose fill has run: every reserved block now
// holds its matrices.
func (m *pMemo) commit() { m.filled = m.used }

// block returns memo block blk.
func (m *pMemo) block(blk int32) [][16]float64 {
	return m.blocks[int(blk)*m.cats : (int(blk)+1)*m.cats]
}

// fillBlock makes dst the transition matrices of every visited partition
// (partState.visited) and rate category at branch length t, at the
// partitions' pOff offsets, the way ref says. Branch lengths are linked
// across partitions; the matrices still differ because every partition
// has its own model and category rates. Safe to run concurrently for
// refs of one plan.
func (e *Engine) fillBlock(t float64, dst [][16]float64, ref memoRef) {
	if ref.hit {
		e.copyVisited(dst, e.memo.block(ref.blk))
		return
	}
	for i := range e.parts {
		ps := &e.parts[i]
		if !ps.visited() {
			continue
		}
		e.kern.pBlock(ps.model, t, ps.rates.Rates, dst[ps.pOff:])
	}
	if ref.blk >= 0 {
		e.copyVisited(e.memo.block(ref.blk), dst)
	}
}

// copyVisited copies the matrices of every visited partition from src to
// dst, both laid out as pEval.
func (e *Engine) copyVisited(dst, src [][16]float64) {
	for i := range e.parts {
		if ps := &e.parts[i]; ps.visited() {
			copy(dst[ps.pOff:ps.pOff+ps.rates.NumCats()], src[ps.pOff:])
		}
	}
}

// fillP fills one scratch buffer (pPend, pEval) with the matrices at
// branch length t through the memo: a plan of one block.
func (e *Engine) fillP(t float64, dst [][16]float64) {
	e.memoSync()
	e.fillBlock(t, dst, e.memo.lookup(t))
	e.memo.commit()
}
