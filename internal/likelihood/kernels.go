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
// [16]float64 transition matrices (docs/kernels.md): per pattern the
// loop materializes one *[4]float64 lane block and one *[16]float64
// matrix via slice-to-array-pointer casts — a single bounds check each —
// and every 4-term dot product is associated pairwise,
//
//	(p0·c0 + p1·c1) + (p2·c2 + p3·c3)
//
// which is both the association the compiler can keep in two
// independent dependency chains and exactly the reduction tree of the
// AVX2 VHADDPD path (kernels_amd64.s), so the scalar and asm kernels
// agree bit for bit. The rescale test is a short-circuit comparison
// chain — `small && v < threshold && …` — whose first live lane kills
// the rest of the chain, so the common case costs one predictable
// branch per category (a running-maximum formulation costs four
// data-dependent branches and mispredicts constantly; the AVX2 GAMMA
// kernels reach the same decision via VMAXPD and one compare — "all
// lanes below threshold" ⟺ "max lane below threshold" — and the AVX2
// CAT kernels via one 4-lane compare and its mask). newview
// processes every pattern unconditionally: the weight-zero skip is
// lifted out of the newview inner loops entirely (zero-weight CLV lanes
// are computed and ignored downstream — cheaper than a per-pattern
// branch), while the log-space reduction kernels keep it (they would
// otherwise pay a log per dead pattern).
//
// The newview kernels are written against the flat CLV arena: each
// worker materializes its contiguous pattern stripe of the destination
// and child tile segments once per (entry, chunk), and the child-kind
// combinations (tip x tip, tip x inner, inner x inner) and the two rate
// treatments are specialized so the inner loop carries no per-pattern
// branches beyond the rescale test. Tip children cost four lookup-table
// loads instead of a 4x4 matrix-vector product. Every shape a search
// runs — the three child-kind combinations under CAT and under GAMMA at
// nCat == 4 — together with the makenewz setup and core loops goes
// through the engine's kernel table (kernels_dispatch.go), where an AVX2
// assembly implementation can replace the scalar reference; the loops
// left inline below are the generic-nCat GAMMA fallback and the
// evaluate-side kernels.

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

func (e *Engine) viewOf(node, slot int) childView {
	n := &e.tree.Nodes[node]
	if n.IsTip() {
		return childView{tip: true, vec: e.tipVecOf(n.Taxon), stride: 4}
	}
	off := e.clvOffset(node, slot)
	so := e.scaleOffset(node, slot)
	return childView{
		vec:    e.arena[off : off+e.tileFloats : off+e.tileFloats],
		scale:  e.scaleArena[so : so+e.tileScale : so+e.tileScale],
		stride: e.nCat * 4,
	}
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
	return ps.fOff - ps.lo*v.stride, v.stride, 4
}

// The 4-lane P·c product against one flat matrix block is spelled out
// inline at every hot call site rather than through a helper: its cost
// (16 muls + 12 adds) is over the compiler's inline budget, and a real
// call per (pattern, category) would dominate the loop. Every expansion
// uses the same pairwise association
//
//	v_r = (p[4r]*c0 + p[4r+1]*c1) + (p[4r+2]*c2 + p[4r+3]*c3)
//
// which is exactly the VHADDPD reduction tree of the AVX2 path, so the
// scalar and assembly kernels round identically at every step.

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
	l0, l1 := lo-ps.lo, hi-ps.lo // segment-local pattern window
	dBase := ent.dstOff + ps.fOff
	dst := e.arena[dBase+l0*4 : dBase+l1*4 : dBase+l1*4]
	sBase := ent.dstScaleOff + ps.sOff
	dsc := e.scaleArena[sBase+l0 : sBase+l1 : sBase+l1]
	pcat := ps.rates.PatternCategory[l0:l1]
	npc := ps.rates.NumCats()
	pL := ent.pL[ps.pOff : ps.pOff+npc]
	pR := ent.pR[ps.pOff : ps.pOff+npc]
	left, right := ent.left, ent.right

	switch {
	case left.tip && right.tip:
		codesL := e.pat.Data[left.taxon][lo:hi]
		codesR := e.pat.Data[right.taxon][lo:hi]
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
		codes := e.pat.Data[tip.taxon][lo:hi]
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
		v0 := t[0] * ((p[0]*c0 + p[1]*c1) + (p[2]*c2 + p[3]*c3))
		v1 := t[1] * ((p[4]*c0 + p[5]*c1) + (p[6]*c2 + p[7]*c3))
		v2 := t[2] * ((p[8]*c0 + p[9]*c1) + (p[10]*c2 + p[11]*c3))
		v3 := t[3] * ((p[12]*c0 + p[13]*c1) + (p[14]*c2 + p[15]*c3))
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
		v0 := ((pa[0]*c0 + pa[1]*c1) + (pa[2]*c2 + pa[3]*c3)) *
			((pb[0]*e0 + pb[1]*e1) + (pb[2]*e2 + pb[3]*e3))
		v1 := ((pa[4]*c0 + pa[5]*c1) + (pa[6]*c2 + pa[7]*c3)) *
			((pb[4]*e0 + pb[5]*e1) + (pb[6]*e2 + pb[7]*e3))
		v2 := ((pa[8]*c0 + pa[9]*c1) + (pa[10]*c2 + pa[11]*c3)) *
			((pb[8]*e0 + pb[9]*e1) + (pb[10]*e2 + pb[11]*e3))
		v3 := ((pa[12]*c0 + pa[13]*c1) + (pa[14]*c2 + pa[15]*c3)) *
			((pb[12]*e0 + pb[13]*e1) + (pb[14]*e2 + pb[15]*e3))
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

// newviewChunkGamma is the multi-category (GAMMA) newview over one
// partition chunk: nCat 4-wide blocks per pattern, category c using the
// partition's transition matrices pL[c]/pR[c]; rescaling considers the
// maximum across all categories of a pattern. At nCat == 4 — the GAMMA
// shape every search runs — all three child-kind combinations dispatch
// through the engine's kernel table; the loops below are the generic
// nCat fallback.
func (e *Engine) newviewChunkGamma(ent *travEntry, ps *partState, lo, hi int) {
	nCat := e.nCat
	st := nCat * 4
	l0, l1 := lo-ps.lo, hi-ps.lo
	n := l1 - l0
	dBase := ent.dstOff + ps.fOff
	dst := e.arena[dBase+l0*st : dBase+l1*st : dBase+l1*st]
	sBase := ent.dstScaleOff + ps.sOff
	dsc := e.scaleArena[sBase+l0 : sBase+l1 : sBase+l1]
	pL := ent.pL[ps.pOff : ps.pOff+nCat]
	pR := ent.pR[ps.pOff : ps.pOff+nCat]
	left, right := ent.left, ent.right

	switch {
	case left.tip && right.tip:
		codesL := e.pat.Data[left.taxon][lo:hi]
		codesR := e.pat.Data[right.taxon][lo:hi]
		lutL := ent.lutL[64*ps.pOff : 64*(ps.pOff+nCat)]
		lutR := ent.lutR[64*ps.pOff : 64*(ps.pOff+nCat)]
		if nCat == 4 {
			e.kern.newviewTT4(dst, codesL, codesR, lutL, lutR, dsc)
			return
		}
		for k := 0; k < n; k++ {
			lc := int(codesL[k]) * st
			rc := int(codesR[k]) * st
			o := k * st
			small := true
			for c := 0; c < nCat; c++ {
				l := (*[4]float64)(lutL[lc+c*4:])
				rr := (*[4]float64)(lutR[rc+c*4:])
				v0 := l[0] * rr[0]
				v1 := l[1] * rr[1]
				v2 := l[2] * rr[2]
				v3 := l[3] * rr[3]
				small = small && v0 < scaleThreshold && v1 < scaleThreshold &&
					v2 < scaleThreshold && v3 < scaleThreshold
				d := (*[4]float64)(dst[o+c*4:])
				d[0], d[1], d[2], d[3] = v0, v1, v2, v3
			}
			var sc int32
			if small {
				for i := o; i < o+st; i++ {
					dst[i] *= scaleFactor
				}
				sc = 1
			}
			dsc[k] = sc
		}

	case left.tip != right.tip:
		tip, inner := left, right
		lut, pm := ent.lutL, pR
		if right.tip {
			tip, inner = right, left
			lut, pm = ent.lutR, pL
		}
		lut = lut[64*ps.pOff : 64*(ps.pOff+nCat)]
		codes := e.pat.Data[tip.taxon][lo:hi]
		iBase := inner.off + ps.fOff
		iv := e.arena[iBase+l0*st : iBase+l1*st : iBase+l1*st]
		isBase := inner.scaleOff + ps.sOff
		isc := e.scaleArena[isBase+l0 : isBase+l1 : isBase+l1]
		if nCat == 4 {
			e.kern.newviewTI4(dst, codes, lut, iv, pm, isc, dsc)
			return
		}
		for k := 0; k < n; k++ {
			tb := int(codes[k]) * st
			o := k * st
			small := true
			for c := 0; c < nCat; c++ {
				t := (*[4]float64)(lut[tb+c*4:])
				cv := (*[4]float64)(iv[o+c*4:])
				c0, c1, c2, c3 := cv[0], cv[1], cv[2], cv[3]
				p := &pm[c]
				v0 := t[0] * ((p[0]*c0 + p[1]*c1) + (p[2]*c2 + p[3]*c3))
				v1 := t[1] * ((p[4]*c0 + p[5]*c1) + (p[6]*c2 + p[7]*c3))
				v2 := t[2] * ((p[8]*c0 + p[9]*c1) + (p[10]*c2 + p[11]*c3))
				v3 := t[3] * ((p[12]*c0 + p[13]*c1) + (p[14]*c2 + p[15]*c3))
				small = small && v0 < scaleThreshold && v1 < scaleThreshold &&
					v2 < scaleThreshold && v3 < scaleThreshold
				d := (*[4]float64)(dst[o+c*4:])
				d[0], d[1], d[2], d[3] = v0, v1, v2, v3
			}
			sc := isc[k]
			if small {
				for i := o; i < o+st; i++ {
					dst[i] *= scaleFactor
				}
				sc++
			}
			dsc[k] = sc
		}

	default: // inner x inner
		lBase := left.off + ps.fOff
		rBase := right.off + ps.fOff
		lv := e.arena[lBase+l0*st : lBase+l1*st : lBase+l1*st]
		rv := e.arena[rBase+l0*st : rBase+l1*st : rBase+l1*st]
		lsBase := left.scaleOff + ps.sOff
		rsBase := right.scaleOff + ps.sOff
		lsc := e.scaleArena[lsBase+l0 : lsBase+l1 : lsBase+l1]
		rsc := e.scaleArena[rsBase+l0 : rsBase+l1 : rsBase+l1]
		if nCat == 4 {
			e.kern.newviewII4(dst, lv, rv, pL, pR, lsc, rsc, dsc)
			return
		}
		for k := 0; k < n; k++ {
			o := k * st
			small := true
			for c := 0; c < nCat; c++ {
				l := (*[4]float64)(lv[o+c*4:])
				rr := (*[4]float64)(rv[o+c*4:])
				c0, c1, c2, c3 := l[0], l[1], l[2], l[3]
				e0, e1, e2, e3 := rr[0], rr[1], rr[2], rr[3]
				pa, pb := &pL[c], &pR[c]
				v0 := ((pa[0]*c0 + pa[1]*c1) + (pa[2]*c2 + pa[3]*c3)) *
					((pb[0]*e0 + pb[1]*e1) + (pb[2]*e2 + pb[3]*e3))
				v1 := ((pa[4]*c0 + pa[5]*c1) + (pa[6]*c2 + pa[7]*c3)) *
					((pb[4]*e0 + pb[5]*e1) + (pb[6]*e2 + pb[7]*e3))
				v2 := ((pa[8]*c0 + pa[9]*c1) + (pa[10]*c2 + pa[11]*c3)) *
					((pb[8]*e0 + pb[9]*e1) + (pb[10]*e2 + pb[11]*e3))
				v3 := ((pa[12]*c0 + pa[13]*c1) + (pa[14]*c2 + pa[15]*c3)) *
					((pb[12]*e0 + pb[13]*e1) + (pb[14]*e2 + pb[15]*e3))
				small = small && v0 < scaleThreshold && v1 < scaleThreshold &&
					v2 < scaleThreshold && v3 < scaleThreshold
				d := (*[4]float64)(dst[o+c*4:])
				d[0], d[1], d[2], d[3] = v0, v1, v2, v3
			}
			sc := lsc[k] + rsc[k]
			if small {
				for i := o; i < o+st; i++ {
					dst[i] *= scaleFactor
				}
				sc++
			}
			dsc[k] = sc
		}
	}
}

// newviewII4Scalar is the scalar reference of the nCat == 4 GAMMA
// inner×inner newview: n patterns of 16 lanes each, 4 matrices per
// child. The AVX2 implementation (kernels_amd64.s) computes the same
// pairwise-associated products and is pinned to this function bit for
// bit by TestKernelEquivalence.
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
			v0 := ((pa[0]*c0 + pa[1]*c1) + (pa[2]*c2 + pa[3]*c3)) *
				((pb[0]*e0 + pb[1]*e1) + (pb[2]*e2 + pb[3]*e3))
			v1 := ((pa[4]*c0 + pa[5]*c1) + (pa[6]*c2 + pa[7]*c3)) *
				((pb[4]*e0 + pb[5]*e1) + (pb[6]*e2 + pb[7]*e3))
			v2 := ((pa[8]*c0 + pa[9]*c1) + (pa[10]*c2 + pa[11]*c3)) *
				((pb[8]*e0 + pb[9]*e1) + (pb[10]*e2 + pb[11]*e3))
			v3 := ((pa[12]*c0 + pa[13]*c1) + (pa[14]*c2 + pa[15]*c3)) *
				((pb[12]*e0 + pb[13]*e1) + (pb[14]*e2 + pb[15]*e3))
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
			v0 := t[cb] * ((p[0]*c0 + p[1]*c1) + (p[2]*c2 + p[3]*c3))
			v1 := t[cb+1] * ((p[4]*c0 + p[5]*c1) + (p[6]*c2 + p[7]*c3))
			v2 := t[cb+2] * ((p[8]*c0 + p[9]*c1) + (p[10]*c2 + p[11]*c3))
			v3 := t[cb+3] * ((p[12]*c0 + p[13]*c1) + (p[14]*c2 + p[15]*c3))
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

// boolIdx returns a when cond is true, else b: selects the tip (flat,
// global-pattern) versus internal (segmented, per-category) CLV offset.
func boolIdx(cond bool, a, b int) int {
	if cond {
		return a
	}
	return b
}

// evaluateRange computes one worker's weighted log-likelihood partial
// across the edge whose endpoint views the master stored in jobVA and
// jobVB, using the per-partition transition matrices already in pEval.
// The total is the sum of per-partition components — linked branch
// lengths, independent models. Each component is also recorded in the
// worker's wide reduction slot, so one JobEvaluate dispatch yields the
// per-partition decomposition (PartitionLogLikelihoods) for free;
// every wide entry is overwritten, including partitions disjoint from
// this worker's range (wide rows are not cleared between jobs).
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
		e.edgeLogSites(blk, ps, b, end)
		m := 0
		for k := b; k < end; k++ {
			if wk := e.weights[k]; wk != 0 {
				sum += float64(wk) * blk.logs[m]
				m++
			}
		}
	}
	return sum
}

// edgeLogSites leaves in blk.logs, in pattern order, the log site
// likelihoods across the edge views jobVA/jobVB of the non-zero-weight
// patterns in [lo, hi) — at most logBlockLen patterns within partition
// ps — scale corrections applied. It is the block step shared by the
// evaluate and site-LL kernels: join the live patterns into blk.site,
// take all their logarithms with one logBlock call, then correct each
// for its views' rescaling counters.
func (e *Engine) edgeLogSites(blk *workerScratch, ps *partState, lo, hi int) {
	va, vb := &e.jobVA, &e.jobVB
	nCat := e.nCat
	freqs := ps.model.Freqs
	pEval := e.pEval[ps.pOff:]
	var pcat []int
	if e.isCAT {
		pcat = ps.rates.PatternCategory
	}
	probs := ps.rates.Probs
	a0, aStep, aCat := viewCoeffs(va, ps)
	b0, bStep, bCat := viewCoeffs(vb, ps)

	m := 0
	for k := lo; k < hi; k++ {
		if e.weights[k] == 0 {
			continue
		}
		var site float64
		for cat := 0; cat < nCat; cat++ {
			pc := cat
			if pcat != nil {
				pc = pcat[k-ps.lo]
			}
			p := &pEval[pc]
			av := (*[4]float64)(va.vec[a0+k*aStep+cat*aCat:])
			bv := (*[4]float64)(vb.vec[b0+k*bStep+cat*bCat:])
			vb0, vb1, vb2, vb3 := bv[0], bv[1], bv[2], bv[3]
			catL := 0.0
			for s := 0; s < 4; s++ {
				as := av[s]
				if as == 0 {
					continue
				}
				dot := (p[s*4]*vb0 + p[s*4+1]*vb1) + (p[s*4+2]*vb2 + p[s*4+3]*vb3)
				catL += freqs[s] * as * dot
			}
			if e.isCAT {
				site = catL
			} else {
				site += probs[cat] * catL
			}
		}
		blk.site[m] = clampSite(site)
		m++
	}
	e.kern.logBlock(&blk.logs, &blk.site, m)

	m = 0
	for k := lo; k < hi; k++ {
		if e.weights[k] == 0 {
			continue
		}
		so := ps.sOff + k - ps.lo
		if va.scale != nil {
			blk.logs[m] -= float64(va.scale[so]) * logScaleFactor
		}
		if vb.scale != nil {
			blk.logs[m] -= float64(vb.scale[so]) * logScaleFactor
		}
		m++
	}
}

// siteLLRange fills one worker's window of jobDst with per-pattern log
// likelihoods at the edge views in jobVA/jobVB. Zero-weight patterns
// get 0.
func (e *Engine) siteLLRange(w int, r threads.Range) {
	for pi := range e.parts {
		ps, lo, hi, ok := e.chunkOf(pi, r)
		if ok {
			e.siteLLChunk(&e.scratch[w], ps, lo, hi)
		}
	}
}

func (e *Engine) siteLLChunk(blk *workerScratch, ps *partState, lo, hi int) {
	dst := e.jobDst
	for b := lo; b < hi; b += logBlockLen {
		end := min(b+logBlockLen, hi)
		e.edgeLogSites(blk, ps, b, end)
		m := 0
		for k := b; k < end; k++ {
			if e.weights[k] == 0 {
				dst[k] = 0
				continue
			}
			dst[k] = blk.logs[m]
			m++
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
	e.ensureArena()
	a := 0
	b := e.tree.Nodes[0].Neighbors[0]
	slotA := e.slotOf(a, b)
	slotB := e.slotOf(b, a)
	e.beginTraversal()
	e.queueTraversal(a, slotA)
	e.queueTraversal(b, slotB)
	e.prepareTraversal()
	e.ensureP()
	t := e.tree.EdgeLength(a, b)
	e.fillP(t, e.pEval)
	e.setEdgeJob(a, slotA, b, slotB, t)
	e.jobDst = dst
	e.dispatch(threads.JobSiteLL)
	e.jobDst = nil
	return dst
}

// derivativesRange computes one worker's partials of d(lnL)/dt and
// d²(lnL)/dt² across the edge views in jobVA/jobVB — the quantities
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
	va := e.jobVA
	vb := e.jobVB
	nCat := e.nCat
	freqs := ps.model.Freqs
	pEval := e.pEval[ps.pOff:]
	pD1 := e.pD1[ps.pOff:]
	pD2 := e.pD2[ps.pOff:]
	var pcat []int
	if e.isCAT {
		pcat = ps.rates.PatternCategory
	}
	probs := ps.rates.Probs
	a0, aStep, aCat := viewCoeffs(&va, ps)
	b0, bStep, bCat := viewCoeffs(&vb, ps)

	var s1, s2 float64
	for k := lo; k < hi; k++ {
		wk := e.weights[k]
		if wk == 0 {
			continue
		}
		lk := k - ps.lo
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
				catL += fa * ((p[s*4]*vb0 + p[s*4+1]*vb1) + (p[s*4+2]*vb2 + p[s*4+3]*vb3))
				catD1 += fa * ((pd1[s*4]*vb0 + pd1[s*4+1]*vb1) + (pd1[s*4+2]*vb2 + pd1[s*4+3]*vb3))
				catD2 += fa * ((pd2[s*4]*vb0 + pd2[s*4+1]*vb1) + (pd2[s*4+2]*vb2 + pd2[s*4+3]*vb3))
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
// is the LEGACY full-matrix kernel — per-iteration PDeriv fills on the
// master, three 4×4 matrix products per (site, category) in the
// workers — kept as the golden reference behind SetLegacyMakenewz;
// production branch optimization runs the eigen-basis sumtable path
// (makenewz.go).
func (e *Engine) branchDerivatives(a, slotA, b, slotB int, t float64) (d1, d2 float64) {
	e.ensureP()
	for i := range e.parts {
		ps := &e.parts[i]
		for c := 0; c < ps.rates.NumCats(); c++ {
			ps.model.PDeriv(t, ps.rates.Rates[c], &e.pEval[ps.pOff+c], &e.pD1[ps.pOff+c], &e.pD2[ps.pOff+c])
		}
	}
	e.setEdgeJob(a, slotA, b, slotB, t)
	e.beginTraversal() // views are fresh: empty descriptor, pure reduction
	e.dispatch(threads.JobMakenewz)
	return e.pool.SumSlots2(0, 1)
}
