package likelihood

import (
	"fmt"
	"math"

	"raxml/internal/gtr"
	"raxml/internal/tree"
)

// This file implements the numerical optimizers: Newton–Raphson
// branch-length optimization (RAxML's makenewz), golden-section model
// parameter optimization (GTR exchangeabilities and the Γ shape), and
// per-site rate optimization with category clustering (the CAT model).
// On partitioned alignments branch lengths stay linked (one length per
// edge, shared by all partitions — RAxML's default -q behaviour) while
// every model parameter is optimized per partition: each gene gets its
// own exchangeabilities, base frequencies, Γ shape and CAT categories.

const (
	// newtonTol terminates branch-length iteration.
	newtonTol = 1e-9
	// newtonMaxIter bounds one branch optimization.
	newtonMaxIter = 32
)

// OptimizeBranch optimizes the length of edge (a, b) by Newton–Raphson
// on d(lnL)/dt with a bisection-style fallback when the second
// derivative is not usable. Returns the optimized length. The first
// iteration is one JobMakenewzSetup (makenewz.go), which refreshes the
// endpoint views, projects them into the model eigenbasis and evaluates
// the derivatives at the starting length; each further iteration is one
// JobMakenewzCore — so the call costs exactly LastNewtonIterations()
// dispatches, with only the eigen exponential factors recomputed on the
// master in between — or, when a distributed dispatcher gathered the
// sumtable with the setup, a master-local reduction: ONE dispatch and
// one wire round trip for the whole branch. Under linked branch lengths
// the per-partition derivative partials simply add, so the partitioned
// iteration is the same loop.
func (e *Engine) OptimizeBranch(a, b int) float64 {
	e.ensureArena()
	slotA := e.slotOf(a, b)
	slotB := e.slotOf(b, a)
	if e.legacyMakenewz {
		e.refreshViews([2]int{a, slotA}, [2]int{b, slotB})
	}

	t := e.tree.EdgeLength(a, b)
	e.lastNewtonIters = 0
	for iter := 0; iter < newtonMaxIter; iter++ {
		var d1, d2 float64
		switch {
		case e.legacyMakenewz:
			d1, d2 = e.branchDerivatives(a, slotA, b, slotB, t)
		case iter == 0:
			d1, d2 = e.makenewzSetup(a, slotA, b, slotB, t)
		default:
			d1, d2 = e.makenewzCore(t)
		}
		e.lastNewtonIters++
		var next float64
		if d2 < -1e-300 {
			next = t - d1/d2
		} else {
			// Not locally concave: move in the gradient direction by a
			// multiplicative step, as RAxML's fallback does.
			if d1 > 0 {
				next = t * 2
			} else {
				next = t / 2
			}
		}
		if next < tree.MinBranchLength {
			next = tree.MinBranchLength
		}
		if next > tree.MaxBranchLength {
			next = tree.MaxBranchLength
		}
		if math.Abs(next-t) < newtonTol*(1+t) {
			t = next
			break
		}
		t = next
	}
	old := e.tree.EdgeLength(a, b)
	if t != old {
		e.tree.SetEdgeLength(a, b, t)
		e.InvalidateEdge(a, b)
	}
	return t
}

// OptimizeAllBranches sweeps every edge with OptimizeBranch up to
// `rounds` times, stopping early when a full sweep improves the
// log-likelihood by less than tol. It returns the final log-likelihood.
// The sweep visits edges in depth-first discovery order (edgesDFS), not
// node-id order: consecutive edges share a node, so after one branch's
// SetEdgeLength invalidation the next branch's endpoint views are at
// most one hop stale and every setup job's descriptor stays O(1)
// entries — RAxML's smoothTree recursion, flattened.
func (e *Engine) OptimizeAllBranches(rounds int, tol float64) float64 {
	if rounds < 1 {
		rounds = 1
	}
	prev := e.LogLikelihood()
	for round := 0; round < rounds; round++ {
		for _, edge := range e.edgesDFS() {
			e.OptimizeBranch(edge.A, edge.B)
		}
		cur := e.LogLikelihood()
		if cur-prev < tol {
			return cur
		}
		prev = cur
	}
	return prev
}

// edgesDFS fills the reused sweep buffer with the attached tree's edges
// in depth-first discovery order from taxon 0 (each edge emitted when
// its far node is first reached, oriented parent→child). Allocation-
// free after the first call at a given tree size.
func (e *Engine) edgesDFS() []tree.Edge {
	e.edgeSweep = e.edgeSweep[:0]
	e.walkStack = append(e.walkStack[:0], [2]int{0, -1})
	for len(e.walkStack) > 0 {
		top := e.walkStack[len(e.walkStack)-1]
		e.walkStack = e.walkStack[:len(e.walkStack)-1]
		node, parent := top[0], top[1]
		if parent >= 0 {
			e.edgeSweep = append(e.edgeSweep, tree.Edge{A: parent, B: node})
		}
		n := &e.tree.Nodes[node]
		for s := len(n.Neighbors) - 1; s >= 0; s-- {
			if v := n.Neighbors[s]; v >= 0 && v != parent {
				e.walkStack = append(e.walkStack, [2]int{v, node})
			}
		}
	}
	return e.edgeSweep
}

// OptimizeJunction Newton-optimizes every branch incident to `center` —
// the local smoothing RAxML applies around a fresh SPR insertion point.
// All endpoint views the sweep needs (the three views out of `center`
// and the three views back at it) are refreshed with ONE combined
// traversal descriptor up front, so the per-branch setup jobs inside
// OptimizeBranch carry at most the one view the previous branch's
// length change invalidated. Returns the number of branches optimized.
func (e *Engine) OptimizeJunction(center int) int {
	e.ensureArena()
	n := &e.tree.Nodes[center]
	var views [6][2]int
	nv := 0
	for s, v := range n.Neighbors {
		if v < 0 {
			continue
		}
		views[nv] = [2]int{center, s}
		views[nv+1] = [2]int{v, e.slotOf(v, center)}
		nv += 2
	}
	e.refreshViews(views[:nv]...)
	done := 0
	for _, v := range n.Neighbors {
		if v >= 0 {
			e.OptimizeBranch(center, v)
			done++
		}
	}
	return done
}

// goldenSection maximizes f over [lo, hi] to within xtol and returns the
// best x. f is assumed unimodal on the interval (standard for the
// one-dimensional model-parameter profiles optimized here).
func goldenSection(lo, hi, xtol float64, f func(float64) float64) float64 {
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > xtol {
		if fc > fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	if fc > fd {
		return c
	}
	return d
}

// ModelOptConfig controls OptimizeModel.
type ModelOptConfig struct {
	// Rates enables GTR exchangeability optimization.
	Rates bool
	// Alpha enables Γ shape optimization (GAMMA treatments only).
	Alpha bool
	// Rounds is the number of coordinate-descent sweeps (default 2).
	Rounds int
	// Tol is the log-parameter search tolerance (default 1e-3).
	Tol float64
}

// OptimizeModel optimizes the substitution-model parameters against the
// attached tree by coordinate-wise golden-section search in log space,
// re-optimizing nothing else; callers interleave it with branch-length
// sweeps exactly as RAxML's full model optimization does. On a
// partitioned alignment every partition's parameters are optimized in
// turn — partitions are independent given the tree, so coordinate
// descent over (partition, parameter) pairs converges exactly like the
// single-partition loop. Returns the final log-likelihood.
func (e *Engine) OptimizeModel(cfg ModelOptConfig) float64 {
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 2
	}
	tol := cfg.Tol
	if tol <= 0 {
		tol = 1e-3
	}
	cur := e.LogLikelihood()
	for round := 0; round < rounds; round++ {
		for pi := range e.parts {
			ps := &e.parts[pi]
			if cfg.Rates {
				// GT (index 5) is the reference rate fixed at 1.
				for ri := 0; ri < 5; ri++ {
					rates := ps.model.Rates
					orig := rates[ri]
					best := goldenSection(math.Log(0.02), math.Log(50), tol, func(lr float64) float64 {
						rates[ri] = math.Exp(lr)
						if err := ps.model.SetRates(rates); err != nil {
							return math.Inf(-1)
						}
						e.InvalidateAll()
						return e.LogLikelihood()
					})
					rates[ri] = math.Exp(best)
					if err := ps.model.SetRates(rates); err != nil {
						rates[ri] = orig
						restoreRates(ps.model, rates, ps.name, err)
					}
					e.InvalidateAll()
				}
			}
			if cfg.Alpha && !e.isCAT {
				k := ps.rates.NumCats()
				best := goldenSection(math.Log(0.05), math.Log(50), tol, func(la float64) float64 {
					rs, err := gtr.GammaCategories(math.Exp(la), k)
					if err != nil {
						return math.Inf(-1)
					}
					copy(ps.rates.Rates, rs)
					e.InvalidateAll()
					return e.LogLikelihood()
				})
				rs, err := gtr.GammaCategories(math.Exp(best), k)
				if err == nil {
					copy(ps.rates.Rates, rs)
				}
				e.InvalidateAll()
			}
		}
		next := e.LogLikelihood()
		if next-cur < 0.01 {
			return next
		}
		cur = next
	}
	return cur
}

// restoreRates reinstalls a known-good exchangeability vector after a
// rejected optimization candidate. A failure here is not a soft
// optimization miss: the model's eigensystem no longer matches any
// valid parameterization, and silently continuing (the old behaviour
// was `_ = ps.model.SetRates(rates)`) would corrupt every subsequent
// likelihood the engine computes. Panic with full context instead.
func restoreRates(m *gtr.Model, rates [6]float64, partition string, cause error) {
	if err := m.SetRates(rates); err != nil {
		panic(fmt.Sprintf(
			"likelihood: OptimizeModel partition %q: candidate rejected (%v) and restoring the previous exchangeabilities failed: %v",
			partition, cause, err))
	}
}

// OptimizePerSiteRates implements the GTRCAT rate-category estimation:
// every pattern's rate is chosen from a log-spaced candidate grid by
// maximizing its own site likelihood under the current tree, the chosen
// rates are clustered into at most maxCats categories *per partition*,
// normalized to mean rate 1 under the partition's active weights, and
// the engine switches to the resulting assignments. Returns the final
// log-likelihood.
//
// This mirrors RAxML's optimizeRateCategories: a handful of full-tree
// site-likelihood sweeps (one per candidate rate, covering every
// partition simultaneously — partitions are independent given the
// tree), then per-partition clustering.
func (e *Engine) OptimizePerSiteRates(maxCats, gridSize int) float64 {
	if !e.isCAT {
		return e.LogLikelihood()
	}
	if gridSize < 2 {
		gridSize = 8
	}
	grid := make([]float64, gridSize)
	logLo := math.Log(gtr.MinCATRate)
	logHi := math.Log(gtr.MaxCATRate)
	for i := range grid {
		grid[i] = math.Exp(logLo + (logHi-logLo)*float64(i)/float64(gridSize-1))
	}

	// Evaluate per-pattern log-likelihood under each uniform candidate
	// rate by temporarily switching every partition to that rate. The
	// rate-treatment pointers stay stable (external holders keep seeing
	// the engine's treatments); only their contents are swapped.
	// Every switch goes through installRates. The treatments installed
	// here are built below or were installed before, so a rejection is a
	// bug in this function or in gtr.ClusterCAT, not bad input.
	install := func(i int, rc gtr.RateCategories) {
		if err := e.parts[i].installRates(rc); err != nil {
			panic(fmt.Sprintf("likelihood: OptimizePerSiteRates: %v", err))
		}
	}
	saved := make([]*gtr.RateCategories, len(e.parts))
	uniformAssign := make([][]int, len(e.parts))
	for i := range e.parts {
		saved[i] = e.parts[i].rates.Clone()
		uniformAssign[i] = make([]int, e.parts[i].hi-e.parts[i].lo)
	}
	bestRate := make([]float64, e.nPatterns)
	bestLL := make([]float64, e.nPatterns)
	for i := range bestLL {
		bestLL[i] = math.Inf(-1)
	}
	scratch := make([]float64, e.nPatterns)
	for _, rate := range grid {
		for i := range e.parts {
			install(i, gtr.RateCategories{
				Rates:           []float64{rate},
				PatternCategory: uniformAssign[i],
			})
		}
		e.InvalidateAll()
		e.SiteLogLikelihoods(scratch)
		for k := 0; k < e.nPatterns; k++ {
			if e.weights[k] == 0 {
				continue
			}
			if scratch[k] > bestLL[k] {
				bestLL[k] = scratch[k]
				bestRate[k] = rate
			}
		}
	}
	// Patterns with zero weight keep a neutral rate.
	for k := 0; k < e.nPatterns; k++ {
		if e.weights[k] == 0 {
			bestRate[k] = 1
		}
	}
	// Cluster per partition over its own local rate estimates.
	clustered := make([]*gtr.RateCategories, len(e.parts))
	for i := range e.parts {
		ps := &e.parts[i]
		c := gtr.ClusterCAT(bestRate[ps.lo:ps.hi], maxCats)
		c.Normalize(e.weights[ps.lo:ps.hi])
		clustered[i] = c
		install(i, *c)
	}
	e.InvalidateAll()
	ll := e.LogLikelihood()

	// Guard: if the clustered assignments are somehow worse than the
	// saved treatments (possible on degenerate data), roll back — all
	// partitions together, keeping the engine in one consistent state.
	for i := range e.parts {
		install(i, *saved[i])
	}
	e.InvalidateAll()
	llSaved := e.LogLikelihood()
	if ll >= llSaved {
		for i := range e.parts {
			install(i, *clustered[i])
		}
		e.InvalidateAll()
		return ll
	}
	return llSaved
}

// EstimateEmpiricalFreqs sets every partition's base frequencies from
// that partition's weighted pattern data (counting unambiguous states
// only) and invalidates caches — each gene gets its own composition, as
// RAxML does for -q analyses. Returns partition 0's frequencies (the
// only partition of unpartitioned data).
func (e *Engine) EstimateEmpiricalFreqs() [4]float64 {
	for pi := range e.parts {
		ps := &e.parts[pi]
		var counts [4]float64
		for taxon := 0; taxon < e.pat.NumTaxa(); taxon++ {
			for k := ps.lo; k < ps.hi; k++ {
				s := e.pat.Data[taxon][k]
				if s.IsAmbiguous() {
					continue
				}
				w := float64(e.weights[k])
				for st := 0; st < 4; st++ {
					if s&(1<<uint(st)) != 0 {
						counts[st] += w
					}
				}
			}
		}
		freqs := gtr.EmpiricalFreqs(counts)
		if err := ps.model.SetFreqs(freqs); err == nil {
			e.InvalidateAll()
		}
	}
	return e.parts[0].model.Freqs
}
