package likelihood

import (
	"math"

	"raxml/internal/threads"
	"raxml/internal/tree"
)

// This file implements the evaluation primitive behind RAxML's *lazy
// SPR* scan. After a subtree is pruned (kept dangling on its attachment
// node), the directed CLVs of the remaining tree and of the subtree are
// both unchanged while candidate insertion edges are tried. Scoring one
// insertion therefore needs no newview at all: it is a single three-way
// join of cached CLVs at the would-be junction — an O(patterns) kernel.
// This is what makes SPR scans affordable and is precisely the loop the
// paper's fine-grained threads accelerate during search stages. All
// candidates of one prune share the subtree view and the pendant
// matrices, so the whole scan is ONE JobInsertScan post: the stale views
// of every candidate ride along in the job's traversal descriptor
// (shared ones computed once), and each worker reduces one partial per
// candidate into its wide reduction row — a prune costs a single barrier
// crossing however many insertions it scores.

// scanCand is one candidate insertion edge (x, y) of the scan in flight:
// its wire form (the two endpoint views and the edge length, which is
// all a remote rank is shipped) and the views resolved against the local
// arena.
type scanCand struct {
	wire   WireCand
	vx, vy childView
	memo   memoRef // how the P(txy/2) block gets filled (pmemo.go)
}

// EvaluateInsertion is EvaluateInsertions for the single candidate edge
// (x, y).
func (e *Engine) EvaluateInsertion(subRoot, attach, x, y int) float64 {
	var out [1]float64
	e.EvaluateInsertions(subRoot, attach, []tree.Edge{{A: x, B: y}}, out[:])
	return out[0]
}

// EvaluateInsertions estimates, for every candidate edge of cands, the
// log-likelihood of inserting the dangling subtree (rooted at subRoot,
// hanging from attachment node attach) into that edge, with ONE pool
// dispatch. An insertion edge is split in half; the pendant branch keeps
// its current length. The tree must currently hold the subtree dangling:
// edge (subRoot, attach) intact, attach otherwise disconnected, and
// every candidate an edge of the main component. Scores land in
// out[:len(cands)] (a new slice when out is too short), which is
// returned. Every score is worker-, rank- and batch-invariant: a
// candidate scores the same bits alone as among any others, because each
// worker's partial is its own sum over its own patterns and partials
// fold in worker, then rank order.
func (e *Engine) EvaluateInsertions(subRoot, attach int, cands []tree.Edge, out []float64) []float64 {
	n := len(cands)
	out = resize(out, n)
	if n == 0 {
		return out
	}
	slotSub := e.slotOf(subRoot, attach)
	e.beginTraversal()
	e.queueTraversal(subRoot, slotSub)
	e.sizeScanCands(n)
	for i, c := range cands {
		slotXY := e.slotOf(c.A, c.B)
		slotYX := e.slotOf(c.B, c.A)
		e.queueTraversal(c.A, slotXY)
		e.queueTraversal(c.B, slotYX)
		e.scanCands[i].wire = WireCand{
			X: e.wireViewOf(c.A, slotXY),
			Y: e.wireViewOf(c.B, slotYX),
			T: e.tree.EdgeLength(c.A, c.B),
		}
	}
	e.prepareTraversal()

	e.jobWire[0] = e.wireViewOf(subRoot, slotSub)
	e.jobT = e.tree.EdgeLength(subRoot, attach)
	e.dispatch(threads.JobInsertScan)
	for i := range out {
		out[i] = e.pool.SumWide(i)
	}
	return out
}

// sizeScanCands sizes the candidate batch to n entries, keeping the
// backing array.
func (e *Engine) sizeScanCands(n int) {
	e.scanCands = resize(e.scanCands, n)
}

// prepareScan, the prep of JobInsertScan, readies a scan whose subtree
// view (jobV[0]), pendant length (jobT) and candidate wire forms
// (scanCands) are set and whose descriptor is prepared, so every tile
// the views name is bound: it resolves the candidates' views against the
// local arena, fills the matrices — through the memo: the pendant length
// rarely changes between the scans of a pass, and most candidates were
// scanned by an earlier prune — and sizes the wide reduction rows to one
// partial per candidate.
func (e *Engine) prepareScan() {
	for i := range e.scanCands {
		sc := &e.scanCands[i]
		sc.vx = e.wireChildView(sc.wire.X)
		sc.vy = e.wireChildView(sc.wire.Y)
	}
	e.ensureP()
	e.fillP(e.jobT, e.pPend)
	e.pendProd = e.pendProd[:e.tileFloats]
	n := len(e.scanCands)
	e.scanP = resize(e.scanP, n*e.totalCats)
	e.memoSync()
	misses := 0
	for i := range e.scanCands {
		sc := &e.scanCands[i]
		sc.memo = e.memo.lookup(sc.wire.T / 2)
		if !sc.memo.hit {
			misses++
		}
	}
	e.forkFill(0, n, misses, e.fillScanFn)
	e.pool.EnsureWide(n)
}

// fillScanHalves fills P(txy/2) for candidates [lo, hi) of the batch.
// Candidates own disjoint blocks of scanP (and of the memo), so ranges
// may run concurrently.
func (e *Engine) fillScanHalves(lo, hi int) {
	for i := lo; i < hi; i++ {
		sc := &e.scanCands[i]
		e.fillBlock(sc.wire.T/2, e.scanP[i*e.totalCats:(i+1)*e.totalCats], sc.memo)
	}
}

// insertScanRange computes one worker's partial of the three-way CLV
// join at every candidate insertion point of the batch — the candidate's
// views with its P(txy/2) matrices toward x and toward y, and the
// subtree view jobV[0] through pPend — and leaves candidate i's in entry i
// of the worker's wide reduction row. The subtree's factor of the join,
// (P_pend·sub), is the same for every candidate, so the worker first
// leaves it in its own stripe of pendProd and every candidate's join
// reads it from there.
func (e *Engine) insertScanRange(w int, r threads.Range) {
	ws := e.pool.WideSlot(w)
	for pi := range e.parts {
		if ps, lo, hi, ok := e.chunkOf(pi, r); ok {
			e.pendantChunk(ps, lo, hi)
		}
	}
	for i := range e.scanCands {
		sc := &e.scanCands[i]
		pHalf := e.scanP[i*e.totalCats : (i+1)*e.totalCats]
		sum := 0.0
		for pi := range e.parts {
			ps, lo, hi, ok := e.chunkOf(pi, r)
			if ok {
				sum += e.insertScanChunk(&e.scratch[w], ps, lo, hi, sc, pHalf)
			}
		}
		ws[i] = sum
	}
}

// pendantChunk fills one partition chunk of pendProd through the kernel
// table's pendant entry, at the patterns' tile-segment offsets (a tip
// subtree gets a category axis here: the matrices differ).
func (e *Engine) pendantChunk(ps *partState, lo, hi int) {
	vs := &e.jobV[0]
	st := e.nCat * 4
	var pcat []int
	if e.isCAT {
		pcat = ps.pcat[lo-ps.tlo : hi-ps.tlo]
	}
	s0, sStep, _ := viewCoeffs(vs, ps)
	base := ps.fOff - ps.tlo*st
	e.kern.pendant(e.pendProd[base+lo*st:base+hi*st], vs.vec[s0+lo*sStep:s0+hi*sStep], sStep,
		e.pPend[ps.pOff:ps.pOff+ps.rates.NumCats()], pcat, ps.maxCat, e.nCat)
}

// pendantScalar is the scalar reference of the pendant product: for each
// of the len(out)/(nCat·4) patterns and each category, the four row dots
// of a pendant matrix with the subtree view's block. Under CAT (pcat
// non-nil, one category per pattern) pattern k uses matrix pPend[pcat[k]],
// top bounding pcat as in the CAT newview references; under GAMMA
// category c uses pPend[c] and reads the view at +4c, or in place for a
// tip (stride ss = 4, catStep). The dots are the ones joinCategory used
// to recompute per candidate — same pairwise association, same pinned
// roundings — so reading them back changes no bit of any score.
func pendantScalar(out, sv []float64, ss int, pPend [][16]float64, pcat []int, top int, nCat int) {
	sc := catStep(ss)
	for k := 0; k < len(out)/(nCat*4); k++ {
		for cat := 0; cat < nCat; cat++ {
			pc := cat
			if pcat != nil {
				pc = pcat[k]
			}
			pp := &pPend[pc]
			sub := (*[4]float64)(sv[k*ss+cat*sc:])
			s1, s2, s3, s4 := sub[0], sub[1], sub[2], sub[3]
			d := (*[4]float64)(out[(k*nCat+cat)*4:])
			for s := 0; s < 4; s++ {
				d[s] = (float64(pp[s]*s1) + float64(pp[4+s]*s2)) + (float64(pp[8+s]*s3) + float64(pp[12+s]*s4))
			}
		}
	}
}

// insertScanChunk walks one partition chunk of one candidate in blocks
// of logBlockLen patterns: the kernel table's scan join writes the
// block's clamped site likelihoods, its logBlock takes their logarithms,
// its siteTail applies the three views' scale corrections and the
// weights, and the weighted logs are then added in pattern order, so the
// partial sum accumulates exactly as a per-pattern loop would.
func (e *Engine) insertScanChunk(blk *workerScratch, ps *partState, lo, hi int, sc *scanCand, pHalf [][16]float64) float64 {
	vx, vy, vs := &sc.vx, &sc.vy, &e.jobV[0]
	npc := ps.rates.NumCats()
	pHalf = pHalf[ps.pOff : ps.pOff+npc]
	x0, xStep, _ := viewCoeffs(vx, ps)
	y0, yStep, _ := viewCoeffs(vy, ps)
	pStep := e.nCat * 4
	p0 := ps.fOff - ps.tlo*pStep

	site, logs := &blk.site, &blk.logs
	sum := 0.0
	for b := lo; b < hi; b += logBlockLen {
		n := min(logBlockLen, hi-b)
		w := e.tileW[b : b+n]
		xv := vx.vec[x0+b*xStep : x0+(b+n)*xStep]
		yv := vy.vec[y0+b*yStep : y0+(b+n)*yStep]
		pv := e.pendProd[p0+b*pStep : p0+(b+n)*pStep]
		lb := b - ps.tlo
		if e.isCAT {
			e.kern.scanJoinCAT(site[:n], xv, yv, pv, ps.pcat[lb:lb+n], ps.maxCat, pHalf, &ps.model.Freqs, w)
		} else {
			e.kern.scanJoinGamma(site[:n], xv, xStep, yv, yStep, pv, pHalf, &ps.model.Freqs, ps.rates.Probs, w)
		}
		e.kern.logBlock(logs, site, n)
		e.kern.siteTail(logs[:n], scaleBlock(vx, ps.sOff+lb, n), scaleBlock(vy, ps.sOff+lb, n), scaleBlock(vs, ps.sOff+lb, n), w)
		for _, wl := range logs[:n] {
			sum += wl
		}
	}
	return sum
}

// zeroScale stands in for the scale counters of a tip view, which has
// none.
var zeroScale [logBlockLen]int32

// scaleBlock returns the n scale counters of view v from offset off on.
func scaleBlock(v *childView, off, n int) []int32 {
	if v.scale == nil {
		return zeroScale[:n]
	}
	return v.scale[off : off+n : off+n]
}

// scanJoinCATScalar is the scalar reference of the CAT insertion-scan
// join: n = len(w) patterns of one 4-lane block per view (tips and
// inner CLVs are both 4 floats per pattern under CAT), pattern k using
// matrix pHalf[pcat[k]] for the x and y views and the pendant product
// block pv[k·4:] (the pendant entry) as the subtree's factor; top bounds
// pcat as in the CAT newview references. out[k] receives the site likelihood
// clamped to SmallestNonzeroFloat64 (NaN stays NaN, as math.Max has it),
// or 1 for a zero-weight pattern — its logarithm is never read. The
// explicit float64 conversions in joinCategory pin every product to its
// own rounding: the language lets a compiler fuse x*y+z, a conversion is
// the rounding point it may not fuse across, and the AVX2 twin uses no
// FMA — so the two agree bit for bit in every build.
func scanJoinCATScalar(out, xv, yv, pv []float64, pcat []int, top int, pHalf [][16]float64, freqs *[4]float64, w []int) {
	for k, wk := range w {
		if wk == 0 {
			out[k] = 1
			continue
		}
		x := (*[4]float64)(xv[k*4:])
		y := (*[4]float64)(yv[k*4:])
		p := (*[4]float64)(pv[k*4:])
		out[k] = clampSite(joinCategory(x, y, p, &pHalf[pcat[k]], freqs))
	}
}

// scanJoinGammaScalar is the scalar reference of the GAMMA
// insertion-scan join over nCat = len(probs) categories. A view's
// pattern stride is 4 floats for a tip (all categories read the same
// block) and nCat*4 for an inner CLV (category c at +4c); the pendant
// products pv always have the inner shape. Output contract as
// scanJoinCATScalar.
func scanJoinGammaScalar(out, xv []float64, xs int, yv []float64, ys int, pv []float64, pHalf [][16]float64, freqs *[4]float64, probs []float64, w []int) {
	xc, yc := catStep(xs), catStep(ys)
	nCat := len(probs)
	for k, wk := range w {
		if wk == 0 {
			out[k] = 1
			continue
		}
		site := 0.0
		for c, pr := range probs {
			x := (*[4]float64)(xv[k*xs+c*xc:])
			y := (*[4]float64)(yv[k*ys+c*yc:])
			p := (*[4]float64)(pv[(k*nCat+c)*4:])
			site += float64(pr * joinCategory(x, y, p, &pHalf[c], freqs))
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
// insertion point: Σ_s freqs[s]·(P_half·x)_s·(P_half·y)_s·ac_s, where
// ac = P_pend·sub is the subtree's pendant product (pendantScalar); every
// 4-term dot is associated pairwise and the four state terms are added
// in order.
func joinCategory(x, y, ac *[4]float64, ph *[16]float64, freqs *[4]float64) float64 {
	x1, x2, x3, x4 := x[0], x[1], x[2], x[3]
	y1, y2, y3, y4 := y[0], y[1], y[2], y[3]
	catL := 0.0
	for s := 0; s < 4; s++ {
		ax := (float64(ph[s]*x1) + float64(ph[4+s]*x2)) + (float64(ph[8+s]*x3) + float64(ph[12+s]*x4))
		ay := (float64(ph[s]*y1) + float64(ph[4+s]*y2)) + (float64(ph[8+s]*y3) + float64(ph[12+s]*y4))
		catL += float64(freqs[s] * ax * ay * ac[s])
	}
	return catL
}
