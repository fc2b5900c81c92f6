package likelihood

import (
	"math"

	"raxml/internal/threads"
)

// This file implements the eigen-basis branch-length kernels: the
// reproduction of RAxML's makenewzIterative/execCore split, replacing
// the naive per-iteration scheme (three derivative matrices per
// partition×category filled serially on the master, three 4×4 matrix
// products per site in the workers) with two phases:
//
//	Phase 1 — JobMakenewzSetup, once per branch. Workers first walk the
//	job's descriptor, which refreshes whatever went stale behind the
//	two endpoint views, then project their pattern stripe of the two
//	endpoint CLVs into the model eigenbasis and store the per-(site,
//	category) 4-entry products
//
//	    sumtable[k] = (Σ_s π_s·a_s·evec[s][k]) · (Σ_j inv[k][j]·b_j)
//
//	in the engine's persistent sumtable arena (one tile-shaped buffer,
//	reused across branches; see docs/memory-layout.md). The sumtable is
//	branch-length independent: it encodes everything about the two
//	subtrees that the Newton iteration needs. The job ends with the
//	phase-2 reduction at the starting length, so it is also the first
//	Newton evaluation.
//
//	Phase 2 — once per further Newton iteration. The master computes,
//	per (partition, category), just the 4 eigen exponentials
//	exp(λ_k·r_c·t) and their λ-weighted first/second-derivative forms
//	(gtr.Model.ExpEigen) — 12 scalars per category, no matrix fills —
//	and d1/d2 are reduced from 4-term dot products against the sumtable
//	(makenewzCoreRange, the one kernel of this phase):
//
//	    catL  = Σ_k exp(λ_k·r_c·t)          · sumtable[k]
//	    catD1 = Σ_k λ_k·r_c·exp(λ_k·r_c·t)  · sumtable[k]
//	    catD2 = Σ_k (λ_k·r_c)²·exp(...)     · sumtable[k]
//
//	Who sums is decided in one place, makenewzDerivatives. On a thread
//	pool, and on a distributed pool whose remote sumtable is too large
//	to move, every worker reduces its own stripe under a JobMakenewzCore
//	(one barrier crossing, and one wire round trip per rank, per
//	iteration). On a distributed pool below the measured crossover the
//	remote stripes' rows ride home on the setup partial instead, the
//	master's arena then holds the whole table, and every derivative of
//	the branch — the first included — is one makenewzCoreRange over the
//	full axis on the master goroutine: no job, no frame, no barrier, and
//	the single pattern-ordered sum a one-worker engine computes, so the
//	optimized length no longer depends on the grid's shape.
//
// Rescaling needs no pass of its own: a pattern's CLV scaling
// multiplies siteL, siteD1 and siteD2 by the same power of the scale
// factor, which cancels in the Newton quantities d1 = siteD1/siteL and
// siteD2/siteL − (siteD1/siteL)² — exactly as the legacy JobMakenewz
// kernel already exploited by never reading the scale counters.
//
// Per-site iteration work drops from three 16-FMA matrix products per
// category to one 4-FMA dot product per derivative order, and the
// serial master-side PDeriv fill disappears entirely; the distributed
// dispatcher ships either nothing per iteration (gathered: the rows
// crossed once, on the setup partial) or ~12·Σcats float64 instead of
// rebuilding three matrices per category on every rank
// (docs/hybrid-topology.md documents the wire payloads and the
// crossover between the two). The legacy
// full-matrix kernel (kernels.go: branchDerivatives/derivativesChunk)
// is retained behind SetLegacyMakenewz as the golden reference.

// ensureSumtable sizes the persistent sumtable arena: one tile's worth
// of float64 (the same padded per-partition segments as a CLV tile), so
// the offset formula of docs/memory-layout.md applies with the tile
// base at 0. Reserved in New at the span's tile size; sliced to the
// current tile on first use and for every later branch.
func (e *Engine) ensureSumtable() {
	e.sumtable = e.sumtable[:e.tileFloats]
}

// makenewzSetup posts ONE JobMakenewzSetup for edge (a, b): its
// descriptor refreshes the endpoint views (a, slotA) and (b, slotB),
// workers fill their stripes of the sumtable arena from them, and the
// derivatives at branch length t are reduced against it — the refresh,
// the projection and the first Newton evaluation in one barrier
// crossing. Returns d(lnL)/dt and d²(lnL)/dt² at t, the same bits a
// makenewzCore(t) after the setup returns.
func (e *Engine) makenewzSetup(a, slotA, b, slotB int, t float64) (d1, d2 float64) {
	e.beginTraversal()
	e.queueTraversal(a, slotA)
	e.queueTraversal(b, slotB)
	e.prepareTraversal()
	e.setEdgeJob(a, slotA, b, slotB, t)
	e.makenewzFactors(t)
	return e.makenewzDerivatives(threads.JobMakenewzSetup)
}

// makenewzDerivatives is where "who sums" is chosen. The setup job is
// always posted: it fills the sumtable. With a gathering dispatcher its
// return means the whole table is in this engine's arena (the local
// crew's stripes plus every remote stripe's rows off the partials), and
// this and every later derivative of the branch is one full-axis
// makenewzCoreRange on the calling goroutine — a core job is never
// posted. Otherwise each worker reduced its own stripe inside the job
// and the slots hold the partials.
func (e *Engine) makenewzDerivatives(code threads.JobCode) (d1, d2 float64) {
	if !e.gatherSumtable {
		e.dispatch(code)
		return e.pool.SumSlots2(0, 1)
	}
	if code == threads.JobMakenewzSetup {
		e.dispatch(code)
	}
	return e.makenewzCoreRange(0, threads.Range{Lo: 0, Hi: e.nPatterns})
}

// ensureFactorScratch sizes the three factor buffers to the current
// category total — the single resize path shared by the master fill
// (makenewzFactors) and the worker-side wire install (applyWireFactors).
func (e *Engine) ensureFactorScratch() {
	need := e.totalCats * 4
	if cap(e.mkzExp) < need {
		e.mkzExp = make([]float64, need)
		e.mkzD1 = make([]float64, need)
		e.mkzD2 = make([]float64, need)
	}
	e.mkzExp = e.mkzExp[:need]
	e.mkzD1 = e.mkzD1[:need]
	e.mkzD2 = e.mkzD2[:need]
}

// makenewzFactors fills mkzExp/mkzD1/mkzD2 with every partition's
// per-category eigen exponential factors at branch length t — the whole
// master-side per-iteration cost of the sumtable scheme.
func (e *Engine) makenewzFactors(t float64) {
	e.ensureFactorScratch()
	for i := range e.parts {
		ps := &e.parts[i]
		o := ps.pOff * 4
		e.kern.expFactors(ps.model, t, ps.rates.Rates, e.mkzExp[o:], e.mkzD1[o:], e.mkzD2[o:])
	}
}

// makenewzCore evaluates the derivatives at branch length t against the
// sumtable filled by makenewzSetup and returns the reduced d(lnL)/dt and
// d²(lnL)/dt²: ONE JobMakenewzCore — one barrier crossing, the
// per-iteration dispatch count of the legacy kernel with ~10× less
// per-site work behind it — or, on a gathered sumtable, no job at all.
func (e *Engine) makenewzCore(t float64) (d1, d2 float64) {
	e.makenewzFactors(t)
	e.jobT = t
	e.beginTraversal()
	return e.makenewzDerivatives(threads.JobMakenewzCore)
}

// makenewzSetupRange fills one worker's stripe of the sumtable arena
// from the endpoint views in jobV, one partition chunk at a
// time (the eigenbasis differs per partition).
func (e *Engine) makenewzSetupRange(w int, r threads.Range) {
	for pi := range e.parts {
		ps, lo, hi, ok := e.chunkOf(pi, r)
		if ok {
			e.makenewzSetupChunk(&e.scratch[w], ps, lo, hi)
		}
	}
}

// makenewzSetupChunk projects one partition chunk (tile axis: live
// patterns only) through the kernel table's mkzSetup.
func (e *Engine) makenewzSetupChunk(blk *workerScratch, ps *partState, lo, hi int) {
	va, vb := &e.jobV[0], &e.jobV[1]
	blk.left, blk.right = ps.model.SumtableBasis()
	st := e.nCat * 4
	base := ps.fOff - ps.tlo*st
	dst := e.sumtable[base+lo*st : base+hi*st : base+hi*st]
	aOff, aStep, _ := viewCoeffs(va, ps)
	bOff, bStep, _ := viewCoeffs(vb, ps)
	e.kern.mkzSetup(dst, va.vec[aOff+lo*aStep:aOff+hi*aStep], aStep,
		vb.vec[bOff+lo*bStep:bOff+hi*bStep], bStep, e.nCat, &blk.left, &blk.right)
}

// mkzSetupScalar is the scalar reference of the makenewz setup
// projection, CAT and GAMMA alike: for each of the len(dst)/(nCat·4)
// patterns and each category, the 4-entry sumtable block
//
//	d[k] = (Σ_s left[s][k]·a_s) · (Σ_j right[k][j]·b_j)
//
// of the endpoint blocks a and b, both sums associated pairwise. as and
// bs are the views' pattern strides in floats; a 4-float stride is a tip
// (or a one-category CLV) whose single block serves every category, any
// other stride an inner CLV with category c at +4c (catStep).
func mkzSetupScalar(dst, av []float64, as int, bv []float64, bs int, nCat int, left, right *[16]float64) {
	st := nCat * 4
	ac, bc := catStep(as), catStep(bs)
	for k := 0; k < len(dst)/st; k++ {
		for cat := 0; cat < nCat; cat++ {
			a := (*[4]float64)(av[k*as+cat*ac:])
			b := (*[4]float64)(bv[k*bs+cat*bc:])
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
			d := (*[4]float64)(dst[k*st+cat*4:])
			for kk := 0; kk < 4; kk++ {
				lz := (left[0*4+kk]*a0 + left[1*4+kk]*a1) + (left[2*4+kk]*a2 + left[3*4+kk]*a3)
				rz := (right[kk*4+0]*b0 + right[kk*4+1]*b1) + (right[kk*4+2]*b2 + right[kk*4+3]*b3)
				d[kk] = lz * rz
			}
		}
	}
}

// makenewzCoreRange reduces the d1/d2 partials of pattern range r from
// the sumtable and the current exponential factors, partition chunks in
// axis order: one worker's stripe inside a job, or the whole axis on the
// master goroutine (scratch 0 is free then — no job is in flight) when
// the sumtable was gathered.
func (e *Engine) makenewzCoreRange(w int, r threads.Range) (d1, d2 float64) {
	var s1, s2 float64
	for pi := range e.parts {
		ps, lo, hi, ok := e.chunkOf(pi, r)
		if ok {
			c1, c2 := e.makenewzCoreChunk(&e.scratch[w], ps, lo, hi)
			s1 += c1
			s2 += c2
		}
	}
	return s1, s2
}

func (e *Engine) makenewzCoreChunk(blk *workerScratch, ps *partState, lo, hi int) (d1, d2 float64) {
	st := e.nCat * 4
	l0, l1 := lo-ps.tlo, hi-ps.tlo
	base := ps.fOff
	tbl := e.sumtable[base+l0*st : base+l1*st : base+l1*st]
	w := e.tileW[lo:hi]
	eb := ps.pOff * 4
	npc := ps.rates.NumCats()
	wE := e.mkzExp[eb : eb+npc*4 : eb+npc*4]
	w1 := e.mkzD1[eb : eb+npc*4 : eb+npc*4]
	w2 := e.mkzD2[eb : eb+npc*4 : eb+npc*4]

	if e.isCAT {
		return e.kern.mkzCoreCAT(tbl, w, ps.pcat[l0:l1], ps.maxCat, wE, w1, w2)
	}

	// Fold the category probabilities into the factor block once per
	// chunk, then hand the branch-light 16-wide reduction to the bound
	// kernel (scalar reference or AVX2 asm).
	probs := ps.rates.Probs
	pw := &blk.pw
	for c := 0; c < GammaCats; c++ {
		pr := probs[c]
		for j := 0; j < 4; j++ {
			pw[c*4+j] = pr * wE[c*4+j]
			pw[16+c*4+j] = pr * w1[c*4+j]
			pw[32+c*4+j] = pr * w2[c*4+j]
		}
	}
	return e.kern.mkzCoreG4(tbl, w, pw)
}

// mkzCoreCATScalar is the scalar reference of the CAT makenewz core
// reduction: per live pattern, three 4-term dots of its sumtable block
// against the factor blocks of its own category pcat[k] (4 floats each at
// pcat[k]·4 of wE, w1, w2), one division, and the two Newton partial sums
// extended in pattern order. A zero-weight pattern, or one whose site
// likelihood is below SmallestNonzeroFloat64, leaves both sums untouched.
// top bounds pcat as in the CAT newview references.
func mkzCoreCATScalar(tbl []float64, w, pcat []int, top int, wE, w1, w2 []float64) (d1, d2 float64) {
	var s1, s2 float64
	for k := 0; k < len(w); k++ {
		wk := w[k]
		if wk == 0 {
			continue
		}
		t := (*[4]float64)(tbl[k*4:])
		t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
		c := pcat[k] * 4
		siteL := (wE[c]*t0 + wE[c+1]*t1) + (wE[c+2]*t2 + wE[c+3]*t3)
		if siteL < math.SmallestNonzeroFloat64 {
			continue
		}
		siteD1 := (w1[c]*t0 + w1[c+1]*t1) + (w1[c+2]*t2 + w1[c+3]*t3)
		siteD2 := (w2[c]*t0 + w2[c+1]*t1) + (w2[c+2]*t2 + w2[c+3]*t3)
		inv := 1 / siteL
		ratio := siteD1 * inv
		s1 += float64(wk) * ratio
		s2 += float64(wk) * (siteD2*inv - ratio*ratio)
	}
	return s1, s2
}

// SetLegacyMakenewz routes OptimizeBranch through the full-matrix
// JobMakenewz kernel (per-iteration PDeriv fills + matrix products) —
// the pre-sumtable behaviour, kept as the golden reference and the
// ablation measuring what the eigen-basis scheme buys. Production code
// never enables it.
func (e *Engine) SetLegacyMakenewz(enabled bool) { e.legacyMakenewz = enabled }

// LastNewtonIterations returns the number of Newton iterations
// (derivative evaluations) of the most recent OptimizeBranch call. The
// first rides the setup job, so on a thread pool, or a distributed one
// that leaves the sumtable where it was computed, it is also the call's
// dispatch count, which the dispatch-accounting tests assert without
// instrumenting the loop; on a gathered sumtable the call costs ONE
// dispatch however many iterations it takes.
func (e *Engine) LastNewtonIterations() int { return e.lastNewtonIters }
