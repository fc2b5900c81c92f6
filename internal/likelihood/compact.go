package likelihood

import "raxml/internal/threads"

// Live-pattern compaction. A rapid-bootstrap replicate resamples the
// alignment's columns, so roughly a third of the compressed patterns
// weigh nothing in any one replicate. RAxML's computeNextReplicate drops
// them before the replicate's search; this engine does the same, in
// place, and without moving a bit of any result.
//
// The engine keeps two pattern axes. The *alignment axis* is the one the
// outside sees: weights, site log-likelihoods, CAT assignments, partition
// spans, and the worker ranges and rank stripes the pools cut. The *tile
// axis* is the live (non-zero-weight) patterns of the engine's span in
// alignment order, and everything a kernel touches is laid out on it: CLV
// tiles and scale counters, tip vectors and state codes, the per-pattern
// CAT categories, the sumtable and the pendant products. While every
// weight is non-zero and the span is the whole axis the two axes coincide.
// A replicate that drops or revives a pattern re-lays the tiles out
// (layoutTiles); every cached CLV is stale at that point anyway, since a
// weight change is a model change.
//
// The same mechanism keeps a worker rank of a distributed grid at its
// stripe: it holds the master's whole alignment and partition set, but
// its crew covers its stripe only, so the patterns outside it are never
// live and the rank's tiles are as wide as its stripe.
//
// A kernel maps its alignment-axis range to the tile axis through
// tilePos (chunkOf), so a range covers exactly its own live patterns.
// Why that keeps every bit: pattern k of a CLV, a sumtable row or a
// pendant product depends on pattern k of its inputs only, and every
// reduction — evaluate, site-LL, the insertion scan, the Newton
// derivatives of both makenewz kernels — already skipped a zero-weight
// pattern (`continue` in the scalar loops, a branch or a -0.0 blend in
// the assembly, which adds nothing to any sum). Cutting the dead
// patterns out of a range therefore leaves each partial with the same
// terms in the same order, at any R×T, and no dead lane can carry a NaN
// or an infinity into a sum because no dead lane is ever computed.
// Ranges and stripes are not re-cut on the tile axis: a worker owns the
// live patterns of the range it always owned.

// installWeights makes a copy of w the active weights and keeps the tile
// axis on its live patterns: a vector that drops or revives a pattern
// re-lays the tiles out, one that only re-weighs live patterns
// re-gathers the tile-axis weights.
func (e *Engine) installWeights(w []int) {
	same := len(e.weights) == len(w)
	for k := 0; same && k < len(w); k++ {
		same = (w[k] == 0) == (e.weights[k] == 0)
	}
	e.weights = append(e.weights[:0], w...)
	if same {
		e.gatherTileWeights()
		return
	}
	e.layoutTiles()
}

// layoutTiles derives the tile axis from the active weights and lays
// everything on it out again: partition spans and segment offsets, the
// tile size, the arenas (tile bindings are kept, their contents are
// stale), the tip state rows and vectors and the CAT categories. Every
// buffer was reserved at the span's width (reserve), so a layout
// only re-slices.
func (e *Engine) layoutTiles() {
	e.tileIdx = e.tileIdx[:0]
	for k, w := range e.weights {
		e.tilePos[k] = int32(len(e.tileIdx))
		if w != 0 && e.span.Lo <= k && k < e.span.Hi {
			e.tileIdx = append(e.tileIdx, int32(k))
		}
	}
	e.tileN = len(e.tileIdx)
	e.tilePos[e.nPatterns] = int32(e.tileN)

	n := e.tileN
	e.tileCodeBuf = e.tileCodeBuf[:len(e.pat.Data)*n]
	for t, row := range e.pat.Data {
		dst := e.tileCodeBuf[t*n : (t+1)*n : (t+1)*n]
		for j, k := range e.tileIdx {
			dst[j] = row[k]
		}
		e.tileCodes[t] = dst
	}
	e.gatherTileWeights()

	e.tileFloats, e.tileScale = 0, 0
	for i := range e.parts {
		ps := &e.parts[i]
		ps.tlo, ps.thi = e.tileSpan(threads.Range{Lo: ps.lo, Hi: ps.hi})
		ps.keep = e.tileIdx[ps.tlo:ps.thi]
		ps.bindCats()
		ps.fOff, ps.sOff = e.tileFloats, e.tileScale
		f, sc := segmentSize(ps.thi-ps.tlo, e.nCat)
		e.tileFloats, e.tileScale = e.tileFloats+f, e.tileScale+sc
	}
	e.arena = e.arena[:e.nTiles*e.tileFloats]
	e.scaleArena = e.scaleArena[:e.nTiles*e.tileScale]
	e.buildTipVectors()
}

// gatherTileWeights brings the active weights onto the tile axis.
func (e *Engine) gatherTileWeights() {
	e.tileW = e.tileW[:e.tileN]
	for i, k := range e.tileIdx {
		e.tileW[i] = e.weights[k]
	}
}

// tileSpan maps an alignment-axis range to the tile-axis window of its
// live patterns.
func (e *Engine) tileSpan(r threads.Range) (lo, hi int) {
	return int(e.tilePos[r.Lo]), int(e.tilePos[r.Hi])
}

// TilePatterns returns how many patterns every kernel visits under the
// active weights — the live ones of the span; the alignment's pattern
// count while no weight is zero and the span is the whole axis.
func (e *Engine) TilePatterns() int { return e.tileN }

// visited reports whether any kernel of the engine visits the partition:
// whether it has a live pattern inside the span. The matrices and tip
// lookup tables of a partition that is not visited are never read, so
// the fills skip it — on a worker rank, every partition outside its
// stripe. Liveness only changes with the weights, which move the model
// epoch and so empty the matrix memo.
func (ps *partState) visited() bool { return ps.tlo < ps.thi }

// bindCats gathers the CAT categories of the partition's live patterns
// into pcat (nil for a GAMMA treatment), whose width reserve sets. Before
// the engine's first layout keep is empty; layoutTiles binds again.
func (ps *partState) bindCats() {
	pc := ps.rates.PatternCategory
	if pc == nil {
		ps.pcat = nil
		return
	}
	ps.pcat = ps.pcat[:len(ps.keep)]
	for i, k := range ps.keep {
		ps.pcat[i] = pc[int(k)-ps.lo]
	}
}

// resize returns s with length n, reusing its backing array when that is
// large enough. The contents are not preserved.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
