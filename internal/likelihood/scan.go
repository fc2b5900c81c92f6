package likelihood

import (
	"math"

	"raxml/internal/threads"
)

// This file implements the evaluation primitive behind RAxML's *lazy
// SPR* scan. After a subtree is pruned (kept dangling on its attachment
// node), the directed CLVs of the remaining tree and of the subtree are
// both unchanged while candidate insertion edges are tried. Scoring one
// insertion therefore needs no newview at all: it is a single three-way
// join of cached CLVs at the would-be junction — an O(patterns) kernel.
// This is what makes SPR scans affordable and is precisely the loop the
// paper's fine-grained threads accelerate during search stages. Each
// scored insertion is one JobInsertScan post: any stale CLVs ride along
// in the job's traversal descriptor, so even the first scan after a
// prune costs a single barrier crossing.

// EvaluateInsertion estimates the log-likelihood of inserting the
// dangling subtree (rooted at subRoot, hanging from attachment node
// attach) into edge (x, y). The insertion edge is split in half; the
// pendant branch keeps its current length. The tree must currently hold
// the subtree dangling: edge (subRoot, attach) intact, attach otherwise
// disconnected, and (x, y) an edge of the main component.
func (e *Engine) EvaluateInsertion(subRoot, attach, x, y int) float64 {
	e.ensureArena()
	slotSub := e.slotOf(subRoot, attach)
	slotXY := e.slotOf(x, y)
	slotYX := e.slotOf(y, x)
	e.beginTraversal()
	e.queueTraversal(subRoot, slotSub)
	e.queueTraversal(x, slotXY)
	e.queueTraversal(y, slotYX)
	e.prepareTraversal()

	txy := e.tree.EdgeLength(x, y)
	pendant := e.tree.EdgeLength(subRoot, attach)
	e.ensureP()
	e.fillScanMatrices(txy, pendant)

	e.jobVX = e.viewOf(x, slotXY)
	e.jobVY = e.viewOf(y, slotYX)
	e.jobVS = e.viewOf(subRoot, slotSub)
	e.jobWire[0] = e.wireViewOf(x, slotXY)
	e.jobWire[1] = e.wireViewOf(y, slotYX)
	e.jobWire[2] = e.wireViewOf(subRoot, slotSub)
	e.jobNViews = 3
	e.jobT, e.jobT2 = txy, pendant
	e.dispatch(threads.JobInsertScan)
	return e.pool.SumSlots(0)
}

// fillScanMatrices fills the insertion-scan scratch for an insertion
// edge of length txy and a pendant branch of length `pendant`: pHalf
// with P(txy/2), which serves both halves of the split edge, and pPend
// with P(pendant) — unless pendKey says pPend already holds exactly
// that, which is the case for every candidate of a scan after the first
// (the pendant length and the model do not change while one subtree is
// scanned). Shared by the master (EvaluateInsertion) and the worker
// path (ExecWireJob), which therefore hold identical matrices.
func (e *Engine) fillScanMatrices(txy, pendant float64) {
	e.fillP(txy/2, e.pHalf)
	key := pendantKey{bits: math.Float64bits(pendant), epoch: e.modelEpoch, cats: e.totalCats}
	if key != e.pendKey {
		e.fillP(pendant, e.pPend)
		e.pendKey = key
	}
}

// insertScanRange computes one worker's partial of the three-way CLV
// join at a candidate insertion point, over the views jobVX/jobVY/jobVS
// with per-partition transition matrices pHalf (toward x and toward y)
// and pPend (toward the subtree).
func (e *Engine) insertScanRange(w int, r threads.Range) float64 {
	sum := 0.0
	for pi := range e.parts {
		ps, lo, hi, ok := e.chunkOf(pi, r)
		if ok {
			sum += e.insertScanChunk(&e.blocks[w], ps, lo, hi)
		}
	}
	return sum
}

// insertScanChunk walks one partition chunk in blocks of logBlockLen
// patterns: the kernel table's scan join writes the block's clamped
// site likelihoods, its logBlock takes their logarithms, and the scale
// corrections and weights are then applied in pattern order, so the
// partial sum accumulates exactly as a per-pattern loop would.
func (e *Engine) insertScanChunk(blk *logBlocks, ps *partState, lo, hi int) float64 {
	vx, vy, vs := &e.jobVX, &e.jobVY, &e.jobVS
	npc := ps.rates.NumCats()
	pHalf := e.pHalf[ps.pOff : ps.pOff+npc]
	pPend := e.pPend[ps.pOff : ps.pOff+npc]
	x0, xStep, _ := viewCoeffs(vx, ps)
	y0, yStep, _ := viewCoeffs(vy, ps)
	s0, sStep, _ := viewCoeffs(vs, ps)

	site, logs := &blk.site, &blk.logs
	sum := 0.0
	for b := lo; b < hi; b += logBlockLen {
		n := min(logBlockLen, hi-b)
		w := e.weights[b : b+n]
		xv := vx.vec[x0+b*xStep : x0+(b+n)*xStep]
		yv := vy.vec[y0+b*yStep : y0+(b+n)*yStep]
		sv := vs.vec[s0+b*sStep : s0+(b+n)*sStep]
		lb := b - ps.lo
		if e.isCAT {
			e.kern.scanJoinCAT(site[:n], xv, yv, sv, ps.rates.PatternCategory[lb:lb+n], pHalf, pPend, &ps.model.Freqs, w)
		} else {
			e.kern.scanJoinGamma(site[:n], xv, xStep, yv, yStep, sv, sStep, pHalf, pPend, &ps.model.Freqs, ps.rates.Probs, w)
		}
		e.kern.logBlock(logs, site, n)
		for i, wk := range w {
			if wk == 0 {
				continue
			}
			logSite := logs[i]
			if vx.scale != nil {
				logSite -= float64(vx.scale[ps.sOff+lb+i]) * logScaleFactor
			}
			if vy.scale != nil {
				logSite -= float64(vy.scale[ps.sOff+lb+i]) * logScaleFactor
			}
			if vs.scale != nil {
				logSite -= float64(vs.scale[ps.sOff+lb+i]) * logScaleFactor
			}
			sum += float64(wk) * logSite
		}
	}
	return sum
}

// scanJoinCATScalar is the scalar reference of the CAT insertion-scan
// join: n = len(w) patterns of one 4-lane block per view (tips and
// inner CLVs are both 4 floats per pattern under CAT), pattern k using
// matrices pHalf[pcat[k]] for the x and y views and pPend[pcat[k]] for
// the subtree view. out[k] receives the site likelihood clamped to
// SmallestNonzeroFloat64 (NaN stays NaN, as math.Max has it), or 1 for
// a zero-weight pattern — its logarithm is never read. The explicit
// float64 conversions in joinCategory pin every product to its own
// rounding: the language lets a compiler fuse x*y+z, a conversion is
// the rounding point it may not fuse across, and the AVX2 twin uses no
// FMA — so the two agree bit for bit in every build.
func scanJoinCATScalar(out, xv, yv, sv []float64, pcat []int, pHalf, pPend [][16]float64, freqs *[4]float64, w []int) {
	for k, wk := range w {
		if wk == 0 {
			out[k] = 1
			continue
		}
		x := (*[4]float64)(xv[k*4:])
		y := (*[4]float64)(yv[k*4:])
		s := (*[4]float64)(sv[k*4:])
		out[k] = clampSite(joinCategory(x, y, s, &pHalf[pcat[k]], &pPend[pcat[k]], freqs))
	}
}

// scanJoinGammaScalar is the scalar reference of the GAMMA
// insertion-scan join over nCat = len(probs) categories. A view's
// pattern stride is 4 floats for a tip (all categories read the same
// block) and nCat*4 for an inner CLV (category c at +4c). Output
// contract as scanJoinCATScalar.
func scanJoinGammaScalar(out, xv []float64, xs int, yv []float64, ys int, sv []float64, ss int, pHalf, pPend [][16]float64, freqs *[4]float64, probs []float64, w []int) {
	xc, yc, sc := catStep(xs), catStep(ys), catStep(ss)
	for k, wk := range w {
		if wk == 0 {
			out[k] = 1
			continue
		}
		site := 0.0
		for c, pr := range probs {
			x := (*[4]float64)(xv[k*xs+c*xc:])
			y := (*[4]float64)(yv[k*ys+c*yc:])
			s := (*[4]float64)(sv[k*ss+c*sc:])
			site += float64(pr * joinCategory(x, y, s, &pHalf[c], &pPend[c], freqs))
		}
		out[k] = clampSite(site)
	}
}

// catStep returns the per-category offset of a GAMMA view with the
// given pattern stride: a 4-float stride is a tip (or a one-category
// CLV), whose single block serves every category.
func catStep(stride int) int {
	if stride == 4 {
		return 0
	}
	return 4
}

// clampSite is math.Max(site, SmallestNonzeroFloat64) without the call.
func clampSite(site float64) float64 {
	if site < math.SmallestNonzeroFloat64 {
		return math.SmallestNonzeroFloat64
	}
	return site
}

// joinCategory is one rate category of the three-way join at an
// insertion point: Σ_s freqs[s]·(P_half·x)_s·(P_half·y)_s·(P_pend·sub)_s,
// every 4-term dot associated pairwise and the four state terms added
// in order.
func joinCategory(x, y, sub *[4]float64, ph, pp *[16]float64, freqs *[4]float64) float64 {
	x1, x2, x3, x4 := x[0], x[1], x[2], x[3]
	y1, y2, y3, y4 := y[0], y[1], y[2], y[3]
	s1, s2, s3, s4 := sub[0], sub[1], sub[2], sub[3]
	catL := 0.0
	for s := 0; s < 4; s++ {
		sb := s * 4
		ax := (float64(ph[sb]*x1) + float64(ph[sb+1]*x2)) + (float64(ph[sb+2]*x3) + float64(ph[sb+3]*x4))
		ay := (float64(ph[sb]*y1) + float64(ph[sb+1]*y2)) + (float64(ph[sb+2]*y3) + float64(ph[sb+3]*y4))
		ac := (float64(pp[sb]*s1) + float64(pp[sb+1]*s2)) + (float64(pp[sb+2]*s3) + float64(pp[sb+3]*s4))
		catL += float64(freqs[s] * ax * ay * ac)
	}
	return catL
}
