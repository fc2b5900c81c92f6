package likelihood

import (
	"math"

	"raxml/internal/msa"
	"raxml/internal/threads"
)

// This file holds the per-pattern compute kernels — the loops that
// RAxML's Pthreads layer distributes over threads and this reproduction
// distributes over the engine's worker pool. Each kernel operates on
// one worker's pattern range and is invoked through the job engine
// (RunJob in traversal.go): the master prepares job inputs in engine
// fields, posts a job code, and workers run these kernels over disjoint
// ranges. Reduction kernels return partials that land in the worker's
// preallocated slot.
//
// Partition chunking. The pattern axis is the partition-major
// concatenation of the per-gene pattern sets, and every partition has
// its own model, rate treatment and padded tile segment. A worker's
// range is therefore processed one *chunk* — the intersection of the
// range with one partition's span — at a time: within a chunk the
// model, the matrix block (part.pOff) and the segment offsets
// (part.fOff/part.sOff) are all fixed, so the specialized inner loops
// are exactly the single-partition loops running on local (segment-
// relative) pattern indices. A single-partition engine takes this path
// with one chunk per range and zero extra per-pattern work.
//
// SIMD shape. All kernels are written in 4-lane form against the flat
// [16]float64 transition matrices, which the engine stores column-major,
// P(j|s) at p[j*4+s] (docs/kernels.md): per pattern the loop
// materializes one *[4]float64 lane block and one *[16]float64 matrix
// via slice-to-array-pointer casts — a single bounds check each — and
// every matrix-vector product is associated pairwise, lane s being
//
//	(p[s]·c0 + p[4+s]·c1) + (p[8+s]·c2 + p[12+s]·c3)
//
// which is both the association the compiler can keep in two
// independent dependency chains and exactly the AVX2 path's
// broadcast-column product (c_j broadcast against column j,
// kernels_amd64.s), so the scalar and asm kernels agree bit for bit. The
// rescale test is a short-circuit comparison chain — `small && v <
// threshold && …` — whose first live lane kills the rest of the chain,
// so the common case costs one predictable branch per category (a
// running-maximum formulation costs four data-dependent branches and
// mispredicts constantly; the AVX2 kernels reach the same decision with
// 4-lane compares, ANDed over a GAMMA pattern's categories, and one mask
// test). No kernel meets a zero-weight pattern: ranges arrive mapped onto
// the tile axis, the live patterns of the replicate (compact.go). The
// kernel-table entries still honour a zero weight — the reductions skip
// it — which is what lets a range drop its dead patterns without moving
// a bit.
//
// The newview kernels are written against the flat CLV arena: each
// worker materializes its contiguous pattern stripe of the destination
// and child tile segments once per (entry, chunk), and the child-kind
// combinations (tip x tip, tip x inner, inner x inner) and the two rate
// treatments are specialized so the inner loop carries no per-pattern
// branches beyond the rescale test. Tip children cost four lookup-table
// loads instead of a 4x4 matrix-vector product. Every newview shape —
// the three child-kind combinations under CAT and under GAMMA, whose
// engines always run GammaCats categories — together with the makenewz
// setup and core loops and the edge evaluation goes through the engine's
// kernel table (kernels_dispatch.go), where an AVX2 assembly
// implementation can replace the scalar reference; the loop left inline
// below is the legacy makenewz reduction.

// childView describes one input of an evaluate-side kernel: either a
// tip (flat 4-wide vector over global patterns, no scaling) or an
// internal directed CLV (whole tile plus its scale counters; chunk
// kernels add the partition's segment offsets). The slices alias the
// engine's flat arenas, materialized by the master after all tiles are
// bound.
type childView struct {
	tip    bool
	vec    []float64 // tip vector (tip) or whole arena tile (internal)
	scale  []int32   // whole scale tile; nil for tips
	stride int       // 4 for tips, nCat*4 for internal CLVs
}

// viewCoeffs returns the affine coefficients of a view's lane-block
// offset: the base of pattern k, category c is a0 + k*aStep + c*aCat.
// Tips are flat 4-wide over global patterns (no category axis);
// internal CLVs live in the partition's tile segment. Hoisting the
// tip/inner selection to three ints removes the per-(pattern, category)
// branch from every evaluate-side inner loop.
func viewCoeffs(v *childView, ps *partState) (a0, aStep, aCat int) {
	if v.tip {
		return 0, 4, 0
	}
	return ps.fOff - ps.tlo*v.stride, v.stride, 4
}

// The 4-lane P·c product against one flat matrix block is spelled out
// inline at every hot call site rather than through a helper: its cost
// (16 muls + 12 adds) is over the compiler's inline budget, and a real
// call per (pattern, category) would dominate the loop. Every expansion
// uses the same pairwise association over the column-major matrix,
//
//	v_s = (p[s]*c0 + p[4+s]*c1) + (p[8+s]*c2 + p[12+s]*c3)
//
// which is lane s of the AVX2 path's (c0·col0 + c1·col1) + (c2·col2 +
// c3·col3), so the scalar and assembly kernels round identically at
// every step.

// newviewRange combines the CLVs of one traversal entry's two children
// across their branches into the entry's directed CLV, over one worker's
// pattern stripe, one partition chunk at a time. The entry's offsets,
// lookup tables and per-partition transition matrices were resolved by
// the master in prepareTraversal; children at pattern k are already
// fresh because descriptor order puts them first.
func (e *Engine) newviewRange(ent *travEntry, r threads.Range) {
	if r.Hi <= r.Lo {
		return
	}
	for pi := range e.parts {
		ps, lo, hi, ok := e.chunkOf(pi, r)
		if !ok {
			continue
		}
		if e.isCAT {
			e.newviewChunkCAT(ent, ps, lo, hi)
		} else {
			e.newviewChunkGamma(ent, ps, lo, hi)
		}
	}
}

// newviewChunkCAT is the nCat == 1 (per-pattern rate category) newview
// over one partition chunk [lo, hi) (global pattern indices): one
// 4-wide block per pattern, transition matrices selected by the
// pattern's category within the partition's matrix block. It only
// materializes the chunk's stripes; the three child-kind loops are
// kernel-table entries.
func (e *Engine) newviewChunkCAT(ent *travEntry, ps *partState, lo, hi int) {
	l0, l1 := lo-ps.tlo, hi-ps.tlo // segment-local pattern window
	dBase := ent.dstOff + ps.fOff
	dst := e.arena[dBase+l0*4 : dBase+l1*4 : dBase+l1*4]
	sBase := ent.dstScaleOff + ps.sOff
	dsc := e.scaleArena[sBase+l0 : sBase+l1 : sBase+l1]
	pcat := ps.pcat[l0:l1]
	npc := ps.rates.NumCats()
	pL := ent.pL[ps.pOff : ps.pOff+npc]
	pR := ent.pR[ps.pOff : ps.pOff+npc]
	left, right := ent.left, ent.right

	switch {
	case left.tip && right.tip:
		codesL := e.tileCodes[left.taxon][lo:hi]
		codesR := e.tileCodes[right.taxon][lo:hi]
		lutL := ent.lutL[64*ps.pOff : 64*(ps.pOff+npc)]
		lutR := ent.lutR[64*ps.pOff : 64*(ps.pOff+npc)]
		e.kern.newviewTTCAT(dst, codesL, codesR, lutL, lutR, pcat, ps.maxCat, dsc)

	case left.tip != right.tip:
		// Normalize: tip contribution from the lookup table, inner
		// child through its matrices. v = tip * inner commutes, so the
		// swap is exact.
		tip, inner := left, right
		lut, pm := ent.lutL, pR
		if right.tip {
			tip, inner = right, left
			lut, pm = ent.lutR, pL
		}
		lut = lut[64*ps.pOff : 64*(ps.pOff+npc)]
		codes := e.tileCodes[tip.taxon][lo:hi]
		iBase := inner.off + ps.fOff
		iv := e.arena[iBase+l0*4 : iBase+l1*4 : iBase+l1*4]
		isBase := inner.scaleOff + ps.sOff
		isc := e.scaleArena[isBase+l0 : isBase+l1 : isBase+l1]
		e.kern.newviewTICAT(dst, codes, lut, iv, pm, pcat, ps.maxCat, isc, dsc)

	default: // inner x inner
		lBase := left.off + ps.fOff
		rBase := right.off + ps.fOff
		lv := e.arena[lBase+l0*4 : lBase+l1*4 : lBase+l1*4]
		rv := e.arena[rBase+l0*4 : rBase+l1*4 : rBase+l1*4]
		lsBase := left.scaleOff + ps.sOff
		rsBase := right.scaleOff + ps.sOff
		lsc := e.scaleArena[lsBase+l0 : lsBase+l1 : lsBase+l1]
		rsc := e.scaleArena[rsBase+l0 : rsBase+l1 : rsBase+l1]
		e.kern.newviewIICAT(dst, lv, rv, pL, pR, pcat, ps.maxCat, lsc, rsc, dsc)
	}
}

// The CAT newview references: n = len(dsc) patterns of one 4-lane block
// each, pattern k combining its children through the matrices (or the
// lookup-table block) of its own rate category pcat[k]. top is the
// highest index pcat can hold (the partition's maxCat): the assembly
// twins, which index the matrix and table blocks unchecked, bound every
// per-pattern index with one check against it; the references index
// checked and ignore it. The AVX2 implementations perform the same
// pairwise-associated products, take the same rescale decision (all four
// lanes below scaleThreshold, a NaN lane never) and are pinned to these
// functions bit for bit by TestKernelEquivalence.

// newviewTTCATScalar is the scalar reference of the CAT tip×tip newview:
// an elementwise product of the children's lookup-table blocks, each
// table holding 16 codes × npc categories × 4 lanes with the block of
// (code, category) at (code·npc + category)·4; npc = len(lutL)/64.
func newviewTTCATScalar(dst []float64, codesL, codesR []msa.State, lutL, lutR []float64, pcat []int, top int, dsc []int32) {
	npc := len(lutL) / 64
	for k := 0; k < len(dsc); k++ {
		pc := pcat[k]
		l := (*[4]float64)(lutL[(int(codesL[k])*npc+pc)*4:])
		rr := (*[4]float64)(lutR[(int(codesR[k])*npc+pc)*4:])
		v0 := l[0] * rr[0]
		v1 := l[1] * rr[1]
		v2 := l[2] * rr[2]
		v3 := l[3] * rr[3]
		var sc int32
		if v0 < scaleThreshold && v1 < scaleThreshold && v2 < scaleThreshold && v3 < scaleThreshold {
			v0 *= scaleFactor
			v1 *= scaleFactor
			v2 *= scaleFactor
			v3 *= scaleFactor
			sc = 1
		}
		d := (*[4]float64)(dst[k*4:])
		d[0], d[1], d[2], d[3] = v0, v1, v2, v3
		dsc[k] = sc
	}
}

// newviewTICATScalar is the scalar reference of the CAT tip×inner
// newview: the inner child's block goes through matrix pm[pcat[k]], the
// tip contributes its lookup-table block (layout as newviewTTCATScalar,
// npc = len(pm)) as an elementwise factor.
func newviewTICATScalar(dst []float64, codes []msa.State, lut, iv []float64, pm [][16]float64, pcat []int, top int, isc, dsc []int32) {
	npc := len(pm)
	for k := 0; k < len(dsc); k++ {
		pc := pcat[k]
		t := (*[4]float64)(lut[(int(codes[k])*npc+pc)*4:])
		c := (*[4]float64)(iv[k*4:])
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		p := &pm[pc]
		v0 := t[0] * ((p[0]*c0 + p[4]*c1) + (p[8]*c2 + p[12]*c3))
		v1 := t[1] * ((p[1]*c0 + p[5]*c1) + (p[9]*c2 + p[13]*c3))
		v2 := t[2] * ((p[2]*c0 + p[6]*c1) + (p[10]*c2 + p[14]*c3))
		v3 := t[3] * ((p[3]*c0 + p[7]*c1) + (p[11]*c2 + p[15]*c3))
		sc := isc[k]
		if v0 < scaleThreshold && v1 < scaleThreshold && v2 < scaleThreshold && v3 < scaleThreshold {
			v0 *= scaleFactor
			v1 *= scaleFactor
			v2 *= scaleFactor
			v3 *= scaleFactor
			sc++
		}
		d := (*[4]float64)(dst[k*4:])
		d[0], d[1], d[2], d[3] = v0, v1, v2, v3
		dsc[k] = sc
	}
}

// newviewIICATScalar is the scalar reference of the CAT inner×inner
// newview: each child's block through its own matrix of the pattern's
// category, the two products multiplied lane by lane.
func newviewIICATScalar(dst, lv, rv []float64, pL, pR [][16]float64, pcat []int, top int, lsc, rsc, dsc []int32) {
	for k := 0; k < len(dsc); k++ {
		pc := pcat[k]
		l := (*[4]float64)(lv[k*4:])
		rr := (*[4]float64)(rv[k*4:])
		c0, c1, c2, c3 := l[0], l[1], l[2], l[3]
		e0, e1, e2, e3 := rr[0], rr[1], rr[2], rr[3]
		pa, pb := &pL[pc], &pR[pc]
		v0 := ((pa[0]*c0 + pa[4]*c1) + (pa[8]*c2 + pa[12]*c3)) *
			((pb[0]*e0 + pb[4]*e1) + (pb[8]*e2 + pb[12]*e3))
		v1 := ((pa[1]*c0 + pa[5]*c1) + (pa[9]*c2 + pa[13]*c3)) *
			((pb[1]*e0 + pb[5]*e1) + (pb[9]*e2 + pb[13]*e3))
		v2 := ((pa[2]*c0 + pa[6]*c1) + (pa[10]*c2 + pa[14]*c3)) *
			((pb[2]*e0 + pb[6]*e1) + (pb[10]*e2 + pb[14]*e3))
		v3 := ((pa[3]*c0 + pa[7]*c1) + (pa[11]*c2 + pa[15]*c3)) *
			((pb[3]*e0 + pb[7]*e1) + (pb[11]*e2 + pb[15]*e3))
		sc := lsc[k] + rsc[k]
		if v0 < scaleThreshold && v1 < scaleThreshold && v2 < scaleThreshold && v3 < scaleThreshold {
			v0 *= scaleFactor
			v1 *= scaleFactor
			v2 *= scaleFactor
			v3 *= scaleFactor
			sc++
		}
		d := (*[4]float64)(dst[k*4:])
		d[0], d[1], d[2], d[3] = v0, v1, v2, v3
		dsc[k] = sc
	}
}

// newviewChunkGamma is the GAMMA newview over one partition chunk:
// GammaCats 4-wide blocks per pattern, category c using the partition's
// transition matrices pL[c]/pR[c]; rescaling considers the maximum
// across all categories of a pattern. All three child-kind combinations
// dispatch through the engine's kernel table.
func (e *Engine) newviewChunkGamma(ent *travEntry, ps *partState, lo, hi int) {
	const st = GammaCats * 4
	l0, l1 := lo-ps.tlo, hi-ps.tlo
	dBase := ent.dstOff + ps.fOff
	dst := e.arena[dBase+l0*st : dBase+l1*st : dBase+l1*st]
	sBase := ent.dstScaleOff + ps.sOff
	dsc := e.scaleArena[sBase+l0 : sBase+l1 : sBase+l1]
	pL := ent.pL[ps.pOff : ps.pOff+GammaCats]
	pR := ent.pR[ps.pOff : ps.pOff+GammaCats]
	left, right := ent.left, ent.right

	switch {
	case left.tip && right.tip:
		codesL := e.tileCodes[left.taxon][lo:hi]
		codesR := e.tileCodes[right.taxon][lo:hi]
		lutL := ent.lutL[64*ps.pOff : 64*(ps.pOff+GammaCats)]
		lutR := ent.lutR[64*ps.pOff : 64*(ps.pOff+GammaCats)]
		e.kern.newviewTT4(dst, codesL, codesR, lutL, lutR, dsc)

	case left.tip != right.tip:
		tip, inner := left, right
		lut, pm := ent.lutL, pR
		if right.tip {
			tip, inner = right, left
			lut, pm = ent.lutR, pL
		}
		lut = lut[64*ps.pOff : 64*(ps.pOff+GammaCats)]
		codes := e.tileCodes[tip.taxon][lo:hi]
		iBase := inner.off + ps.fOff
		iv := e.arena[iBase+l0*st : iBase+l1*st : iBase+l1*st]
		isBase := inner.scaleOff + ps.sOff
		isc := e.scaleArena[isBase+l0 : isBase+l1 : isBase+l1]
		e.kern.newviewTI4(dst, codes, lut, iv, pm, isc, dsc)

	default: // inner x inner
		lBase := left.off + ps.fOff
		rBase := right.off + ps.fOff
		lv := e.arena[lBase+l0*st : lBase+l1*st : lBase+l1*st]
		rv := e.arena[rBase+l0*st : rBase+l1*st : rBase+l1*st]
		lsBase := left.scaleOff + ps.sOff
		rsBase := right.scaleOff + ps.sOff
		lsc := e.scaleArena[lsBase+l0 : lsBase+l1 : lsBase+l1]
		rsc := e.scaleArena[rsBase+l0 : rsBase+l1 : rsBase+l1]
		e.kern.newviewII4(dst, lv, rv, pL, pR, lsc, rsc, dsc)
	}
}

// newviewII4Scalar is the scalar reference of the nCat == 4 GAMMA
// inner×inner newview: n patterns of 16 lanes each, 4 matrices per
// child. The AVX2 implementation (kernels_amd64.s) computes the same
// pairwise-associated products, takes the same rescale decision (all 16
// lanes below scaleThreshold, a NaN lane never) and is pinned to this
// function bit for bit by TestKernelEquivalence.
func newviewII4Scalar(dst, lv, rv []float64, pL, pR [][16]float64, lsc, rsc, dsc []int32) {
	pL = pL[:4]
	pR = pR[:4]
	for k := 0; k < len(dsc); k++ {
		o := k * 16
		l := (*[16]float64)(lv[o:])
		rr := (*[16]float64)(rv[o:])
		d := (*[16]float64)(dst[o:])
		small := true
		for c := 0; c < 4; c++ {
			cb := c * 4
			c0, c1, c2, c3 := l[cb], l[cb+1], l[cb+2], l[cb+3]
			e0, e1, e2, e3 := rr[cb], rr[cb+1], rr[cb+2], rr[cb+3]
			pa, pb := &pL[c], &pR[c]
			v0 := ((pa[0]*c0 + pa[4]*c1) + (pa[8]*c2 + pa[12]*c3)) *
				((pb[0]*e0 + pb[4]*e1) + (pb[8]*e2 + pb[12]*e3))
			v1 := ((pa[1]*c0 + pa[5]*c1) + (pa[9]*c2 + pa[13]*c3)) *
				((pb[1]*e0 + pb[5]*e1) + (pb[9]*e2 + pb[13]*e3))
			v2 := ((pa[2]*c0 + pa[6]*c1) + (pa[10]*c2 + pa[14]*c3)) *
				((pb[2]*e0 + pb[6]*e1) + (pb[10]*e2 + pb[14]*e3))
			v3 := ((pa[3]*c0 + pa[7]*c1) + (pa[11]*c2 + pa[15]*c3)) *
				((pb[3]*e0 + pb[7]*e1) + (pb[11]*e2 + pb[15]*e3))
			small = small && v0 < scaleThreshold && v1 < scaleThreshold &&
				v2 < scaleThreshold && v3 < scaleThreshold
			d[cb], d[cb+1], d[cb+2], d[cb+3] = v0, v1, v2, v3
		}
		sc := lsc[k] + rsc[k]
		if small {
			for i := range d {
				d[i] *= scaleFactor
			}
			sc++
		}
		dsc[k] = sc
	}
}

// newviewTT4Scalar is the scalar reference of the nCat == 4 GAMMA
// tip×tip newview: each pattern is an elementwise product of one
// 16-lane code block from each child's lookup table (lutL/lutR hold 16
// codes × 16 lanes = 256 floats).
func newviewTT4Scalar(dst []float64, codesL, codesR []msa.State, lutL, lutR []float64, dsc []int32) {
	for k := 0; k < len(dsc); k++ {
		l := (*[16]float64)(lutL[int(codesL[k])*16:])
		rr := (*[16]float64)(lutR[int(codesR[k])*16:])
		d := (*[16]float64)(dst[k*16:])
		small := true
		for c := 0; c < 4; c++ {
			cb := c * 4
			v0 := l[cb] * rr[cb]
			v1 := l[cb+1] * rr[cb+1]
			v2 := l[cb+2] * rr[cb+2]
			v3 := l[cb+3] * rr[cb+3]
			small = small && v0 < scaleThreshold && v1 < scaleThreshold &&
				v2 < scaleThreshold && v3 < scaleThreshold
			d[cb], d[cb+1], d[cb+2], d[cb+3] = v0, v1, v2, v3
		}
		var sc int32
		if small {
			for i := range d {
				d[i] *= scaleFactor
			}
			sc = 1
		}
		dsc[k] = sc
	}
}

// newviewTI4Scalar is the scalar reference of the nCat == 4 GAMMA
// tip×inner newview: the inner child's lanes go through the category's
// transition matrix (pm), the tip contributes its 16-lane lookup-table
// block as an elementwise factor.
func newviewTI4Scalar(dst []float64, codes []msa.State, lut, iv []float64, pm [][16]float64, isc, dsc []int32) {
	pm = pm[:4]
	for k := 0; k < len(dsc); k++ {
		o := k * 16
		t := (*[16]float64)(lut[int(codes[k])*16:])
		cv := (*[16]float64)(iv[o:])
		d := (*[16]float64)(dst[o:])
		small := true
		for c := 0; c < 4; c++ {
			cb := c * 4
			c0, c1, c2, c3 := cv[cb], cv[cb+1], cv[cb+2], cv[cb+3]
			p := &pm[c]
			v0 := t[cb] * ((p[0]*c0 + p[4]*c1) + (p[8]*c2 + p[12]*c3))
			v1 := t[cb+1] * ((p[1]*c0 + p[5]*c1) + (p[9]*c2 + p[13]*c3))
			v2 := t[cb+2] * ((p[2]*c0 + p[6]*c1) + (p[10]*c2 + p[14]*c3))
			v3 := t[cb+3] * ((p[3]*c0 + p[7]*c1) + (p[11]*c2 + p[15]*c3))
			small = small && v0 < scaleThreshold && v1 < scaleThreshold &&
				v2 < scaleThreshold && v3 < scaleThreshold
			d[cb], d[cb+1], d[cb+2], d[cb+3] = v0, v1, v2, v3
		}
		sc := isc[k]
		if small {
			for i := range d {
				d[i] *= scaleFactor
			}
			sc++
		}
		dsc[k] = sc
	}
}

// evaluateRange computes one worker's weighted log-likelihood partial
// across the edge whose endpoint views are in jobV, using the
// per-partition transition matrices already in pEval. The total is the
// sum of per-partition components — linked branch lengths, independent
// models. Each component is also recorded in the worker's wide
// reduction slot, so one JobEvaluate dispatch yields the per-partition
// decomposition (PartitionLogLikelihoods) for free; every wide entry is
// overwritten, including partitions disjoint from this worker's range
// (wide rows are not cleared between jobs).
func (e *Engine) evaluateRange(w int, r threads.Range) float64 {
	ws := e.pool.WideSlot(w)
	sum := 0.0
	for pi := range e.parts {
		c := 0.0
		if ps, lo, hi, ok := e.chunkOf(pi, r); ok {
			c = e.evaluateChunk(&e.scratch[w], ps, lo, hi)
		}
		ws[pi] = c
		sum += c
	}
	return sum
}

func (e *Engine) evaluateChunk(blk *workerScratch, ps *partState, lo, hi int) float64 {
	sum := 0.0
	for b := lo; b < hi; b += logBlockLen {
		end := min(b+logBlockLen, hi)
		e.edgeLogSites(blk, ps, b, end, e.tileW[b:end])
		for _, wl := range blk.logs[:end-b] {
			sum += wl
		}
	}
	return sum
}

// edgeLogSites leaves in blk.logs, in pattern order, the log site
// likelihoods across the edge views in jobV of the (tile-axis, so
// live) patterns in [lo, hi) — at most logBlockLen patterns within
// partition ps — scale corrections applied and, when w is not nil,
// multiplied by the patterns' weights w. It is the block step shared by
// the evaluate and site-LL kernels, three kernel-table calls: the
// evaluate entry joins the patterns into blk.site, logBlock takes all
// their logarithms, and siteTail corrects each for its views' rescaling
// counters (a tip's are zero) and weighs it.
func (e *Engine) edgeLogSites(blk *workerScratch, ps *partState, lo, hi int, w []int) {
	va, vb := &e.jobV[0], &e.jobV[1]
	n := hi - lo
	a0, aStep, _ := viewCoeffs(va, ps)
	b0, bStep, _ := viewCoeffs(vb, ps)
	var (
		pcat  []int
		probs []float64
	)
	if e.isCAT {
		pcat = ps.pcat[lo-ps.tlo : hi-ps.tlo]
	} else {
		probs = ps.rates.Probs
	}
	e.kern.evaluate(blk.site[:n], va.vec[a0+lo*aStep:a0+hi*aStep], aStep, vb.vec[b0+lo*bStep:b0+hi*bStep], bStep,
		e.pEval[ps.pOff:ps.pOff+ps.rates.NumCats()], pcat, ps.maxCat, &ps.model.Freqs, probs)
	e.kern.logBlock(&blk.logs, &blk.site, n)
	so := ps.sOff + lo - ps.tlo
	e.kern.siteTail(blk.logs[:n], scaleBlock(va, so, n), scaleBlock(vb, so, n), zeroScale[:n], w)
}

// evaluateScalar is the scalar reference of the evaluate entry: the
// site likelihoods across one edge of n = len(out) patterns, clamped to
// SmallestNonzeroFloat64 (NaN stays NaN). The views' pattern strides
// as/bs are 4 floats for a tip (every category reads the same block) and
// nCat·4 for an inner CLV (category c at +4c). Under CAT (pcat non-nil,
// one category per pattern) pattern k goes through pm[pcat[k]] and its
// site is the category's likelihood; under GAMMA category c goes through
// pm[c] and the site is Σ probs[c]·catL in category order. A category's
// likelihood Σ_s (freqs[s]·a_s)·(P·b)_s adds its state terms in order and
// skips a state whose a_s is zero — a tip's absent states, whatever the
// dot. The explicit conversions pin every product to its own rounding,
// as in the scan join.
func evaluateScalar(out, av []float64, as int, bv []float64, bs int, pm [][16]float64, pcat []int, top int, freqs *[4]float64, probs []float64) {
	ac, bc := catStep(as), catStep(bs)
	nCat := len(probs)
	if pcat != nil {
		nCat = 1
	}
	for k := range out {
		var site float64
		for cat := 0; cat < nCat; cat++ {
			p := &pm[cat]
			if pcat != nil {
				p = &pm[pcat[k]]
			}
			a := (*[4]float64)(av[k*as+cat*ac:])
			b := (*[4]float64)(bv[k*bs+cat*bc:])
			b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
			catL := 0.0
			for s := 0; s < 4; s++ {
				if a[s] == 0 {
					continue
				}
				dot := (float64(p[s]*b0) + float64(p[4+s]*b1)) + (float64(p[8+s]*b2) + float64(p[12+s]*b3))
				catL += float64(float64(freqs[s]*a[s]) * dot)
			}
			if pcat != nil {
				site = catL
			} else {
				site += float64(probs[cat] * catL)
			}
		}
		out[k] = clampSite(site)
	}
}

// siteTailScalar is the scalar reference of the site tail: each of the
// len(logs) log site likelihoods less its three views' rescaling counters
// times logScaleFactor, in the order x, y, s, then multiplied by its
// pattern's weight when w is not nil. A zero counter subtracts +0, which
// returns the log's own bits, so a view without counters (a tip) passes
// zeroScale.
func siteTailScalar(logs []float64, sx, sy, ss []int32, w []int) {
	for i := range logs {
		l := logs[i]
		l -= float64(sx[i]) * logScaleFactor
		l -= float64(sy[i]) * logScaleFactor
		l -= float64(ss[i]) * logScaleFactor
		if w != nil {
			l = float64(w[i]) * l
		}
		logs[i] = l
	}
}

// siteLLRange fills one worker's window of jobDst — alignment axis —
// with per-pattern log likelihoods at the edge views in jobV.
// Zero-weight patterns get 0.
func (e *Engine) siteLLRange(w int, r threads.Range) {
	clear(e.jobDst[r.Lo:r.Hi]) // the dead patterns; the chunks write the rest
	for pi := range e.parts {
		ps, lo, hi, ok := e.chunkOf(pi, r)
		if ok {
			e.siteLLChunk(&e.scratch[w], ps, lo, hi)
		}
	}
}

// siteLLChunk scatters the site log-likelihoods of one tile-axis chunk to
// their alignment-axis places in jobDst.
func (e *Engine) siteLLChunk(blk *workerScratch, ps *partState, lo, hi int) {
	dst := e.jobDst
	for b := lo; b < hi; b += logBlockLen {
		end := min(b+logBlockLen, hi)
		e.edgeLogSites(blk, ps, b, end, nil)
		for i, at := range ps.keep[b-ps.tlo : end-ps.tlo] {
			dst[at] = blk.logs[i]
		}
	}
}

// SiteLogLikelihoods fills dst (allocating if nil) with the per-pattern
// log-likelihoods of the attached tree evaluated at the edge incident to
// taxon 0. Zero-weight patterns get 0. Used by per-site rate
// optimization (GTRCAT) and by the RELL-style diagnostics. One pool
// dispatch covers the whole refresh-plus-scan.
func (e *Engine) SiteLogLikelihoods(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, e.nPatterns)
	}
	a := 0
	b := e.tree.Nodes[0].Neighbors[0]
	slotA := e.slotOf(a, b)
	slotB := e.slotOf(b, a)
	e.beginTraversal()
	e.queueTraversal(a, slotA)
	e.queueTraversal(b, slotB)
	e.prepareTraversal()
	e.setEdgeJob(a, slotA, b, slotB, e.tree.EdgeLength(a, b))
	e.jobDst = dst
	e.dispatch(threads.JobSiteLL)
	e.jobDst = nil
	return dst
}

// derivativesRange computes one worker's partials of d(lnL)/dt and
// d²(lnL)/dt² across the edge views in jobV — the quantities
// RAxML's makenewz feeds its Newton–Raphson iteration. The derivative
// matrices pEval/pD1/pD2 were filled by the master for every partition;
// the branch length is shared, so per-partition derivative partials
// simply add.
func (e *Engine) derivativesRange(r threads.Range) (d1, d2 float64) {
	var s1, s2 float64
	for pi := range e.parts {
		ps, lo, hi, ok := e.chunkOf(pi, r)
		if ok {
			c1, c2 := e.derivativesChunk(ps, lo, hi)
			s1 += c1
			s2 += c2
		}
	}
	return s1, s2
}

func (e *Engine) derivativesChunk(ps *partState, lo, hi int) (d1, d2 float64) {
	va := e.jobV[0]
	vb := e.jobV[1]
	nCat := e.nCat
	freqs := ps.model.Freqs
	pEval := e.pEval[ps.pOff:]
	pD1 := e.pD1[ps.pOff:]
	pD2 := e.pD2[ps.pOff:]
	var pcat []int
	if e.isCAT {
		pcat = ps.pcat
	}
	probs := ps.rates.Probs
	a0, aStep, aCat := viewCoeffs(&va, ps)
	b0, bStep, bCat := viewCoeffs(&vb, ps)

	var s1, s2 float64
	for k := lo; k < hi; k++ {
		wk := e.tileW[k]
		lk := k - ps.tlo
		var siteL, siteD1, siteD2 float64
		for cat := 0; cat < nCat; cat++ {
			pc := cat
			if pcat != nil {
				pc = pcat[lk]
			}
			p := &pEval[pc]
			pd1 := &pD1[pc]
			pd2 := &pD2[pc]
			av := (*[4]float64)(va.vec[a0+k*aStep+cat*aCat:])
			bv := (*[4]float64)(vb.vec[b0+k*bStep+cat*bCat:])
			vb0, vb1, vb2, vb3 := bv[0], bv[1], bv[2], bv[3]
			var catL, catD1, catD2 float64
			for s := 0; s < 4; s++ {
				as := av[s]
				if as == 0 {
					continue
				}
				fa := freqs[s] * as
				catL += fa * ((p[s]*vb0 + p[4+s]*vb1) + (p[8+s]*vb2 + p[12+s]*vb3))
				catD1 += fa * ((pd1[s]*vb0 + pd1[4+s]*vb1) + (pd1[8+s]*vb2 + pd1[12+s]*vb3))
				catD2 += fa * ((pd2[s]*vb0 + pd2[4+s]*vb1) + (pd2[8+s]*vb2 + pd2[12+s]*vb3))
			}
			if e.isCAT {
				siteL, siteD1, siteD2 = catL, catD1, catD2
			} else {
				pr := probs[cat]
				siteL += pr * catL
				siteD1 += pr * catD1
				siteD2 += pr * catD2
			}
		}
		if siteL < math.SmallestNonzeroFloat64 {
			continue
		}
		inv := 1 / siteL
		ratio := siteD1 * inv
		s1 += float64(wk) * ratio
		s2 += float64(wk) * (siteD2*inv - ratio*ratio)
	}
	return s1, s2
}

// branchDerivatives posts one JobMakenewz over fresh endpoint views
// (a, slotA) and (b, slotB) at branch length t and returns the reduced
// derivatives. Callers must have refreshed the views (refreshViews);
// each Newton iteration then costs exactly one barrier crossing. This
// is the LEGACY full-matrix kernel — per-iteration PDeriv fills
// (fillDerivP), three 4×4 matrix products per (site, category) in the
// workers — kept as the golden reference behind SetLegacyMakenewz;
// production branch optimization runs the eigen-basis sumtable path
// (makenewz.go).
func (e *Engine) branchDerivatives(a, slotA, b, slotB int, t float64) (d1, d2 float64) {
	e.setEdgeJob(a, slotA, b, slotB, t)
	e.beginTraversal() // views are fresh: empty descriptor, pure reduction
	e.dispatch(threads.JobMakenewz)
	return e.pool.SumSlots2(0, 1)
}

// fillDerivP fills pEval, pD1 and pD2 with every partition's matrices and
// their first two derivatives at the job's branch length, in the
// engine's column layout: the prep of the JobMakenewz job.
func (e *Engine) fillDerivP() {
	e.ensureP()
	for i := range e.parts {
		ps := &e.parts[i]
		for c := ps.pOff; c < ps.pOff+ps.rates.NumCats(); c++ {
			ps.model.PDeriv(e.jobT, ps.rates.Rates[c-ps.pOff], &e.pEval[c], &e.pD1[c], &e.pD2[c])
			transpose4(&e.pEval[c])
			transpose4(&e.pD1[c])
			transpose4(&e.pD2[c])
		}
	}
}
