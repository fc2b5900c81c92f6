// Package parsimony implements Fitch parsimony: the fast, model-free
// scoring that RAxML uses to build randomized stepwise-addition starting
// trees for maximum-likelihood searches and rapid-bootstrap restarts.
//
// States are the 4-bit sets of package msa, so Fitch's set operations
// are single AND/OR instructions. Everything runs through the same
// job-code engine as the likelihood kernels (in RAxML the parsimony
// kernel is distributed over the same worker crew), as ONE
// threads.JobParsimony per call.
//
// Views. A directed Fitch view u→v is the state set of u's side of the
// edge u–v, one byte per pattern; a tip's view is its row of the pattern
// matrix. An inner node's view toward one neighbour is the Fitch join of
// the views of its other two, and its weighted cost is theirs plus the
// join's own changes. Views store states only: each worker keeps the
// costs of its own range as one scalar per view (a view's cost is a sum
// over patterns, so a range's share of it is a sum of its children's
// shares), and buffers are indexed node*3+slot, allocated once per
// engine.
//
// Score lists the views toward one tip in post-order and reduces the
// score at that tip's edge. StepwiseAddition posts one job per inserted
// taxon: the job lists every view of the partial tree in dependency
// order, and then scores every candidate edge (x, y) of the tree from
// the two views at its ends and the taxon's tip row — Fitch's score is
// independent of where the tree is rooted, so rooting the tree with the
// taxon inserted on (x, y) at its pendant edge gives
//
//	cost(x→y) + cost(y→x) + Σ w·([X∩Y=∅] + [M∩T=∅]),
//
// M being X∩Y, or X∪Y when that is empty, and T the taxon's states. The
// result is exactly Score of that tree, without building it: a tree of
// k taxa costs 3(k−2) view steps and 2k−3 candidate joins, not a
// whole-tree fold per candidate.
//
// Live patterns. SetWeights lays a second pattern axis out over the
// non-zero-weight patterns (a bootstrap replicate weighs about two in
// three); views and the gathered tip rows live on it and every step
// visits only those. A worker still owns the live patterns of the range
// the pool gave it, and scores are integers, so nothing depends on the
// layout.
package parsimony

import (
	"fmt"

	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// fitchStep is one entry of the job descriptor: join two child views
// into dst. Buffers are resolved by the master at plan time; ids index
// the workers' cost rows, where a tip's id (taxon*3) is always zero.
type fitchStep struct {
	dst, l, r       []msa.State
	dstID, lID, rID int
}

// candidate is one insertion edge (x, y): the views x→y and y→x.
type candidate struct {
	x, y     []msa.State
	xID, yID int
}

// Engine scores trees under Fitch parsimony over one pattern set.
type Engine struct {
	pat     *msa.Patterns
	pool    *threads.Pool
	weights []int

	// The live axis: livePos[k] is the live-axis position of alignment
	// pattern k (and of the next live one when k is dead), so a range
	// [Lo, Hi) covers live positions [livePos[Lo], livePos[Hi]).
	livePos []int32
	liveIdx []int32
	liveW   []int
	tips    [][]msa.State // per taxon, on the live axis
	tipBuf  []msa.State

	// views[node*3+slot] is the view from node toward Neighbors[slot];
	// nil until first used, then NumPatterns long (a replicate's live axis
	// is never longer).
	views [][]msa.State
	// costs holds one row of costStride view costs per pool range.
	costs      []int
	costStride int

	// The job descriptor: steps in dependency order, then either the
	// candidate edges of tip (StepwiseAddition) or, with no candidates,
	// the anchor edge between tip and the view anchor/anchorID (Score).
	steps    []fitchStep
	cands    []candidate
	tip      []msa.State
	anchor   []msa.State
	anchorID int

	pre    [][2]int // planning scratch: (node, parent) in pre-order
	scores []int
}

// New creates a parsimony engine. A nil pool means serial execution.
func New(pat *msa.Patterns, pool *threads.Pool) *Engine {
	e := &Engine{pat: pat, pool: pool}
	if e.pool == nil {
		e.pool = threads.NewPool(1, pat.NumPatterns())
	}
	e.tips = make([][]msa.State, pat.NumTaxa())
	e.installWeights(pat.Weights)
	return e
}

// SetWeights installs a bootstrap weight vector (nil restores the
// original weights).
func (e *Engine) SetWeights(w []int) {
	if w == nil {
		w = e.pat.Weights
	} else if len(w) != e.pat.NumPatterns() {
		panic(fmt.Sprintf("parsimony: weight vector has %d entries, want %d", len(w), e.pat.NumPatterns()))
	}
	e.installWeights(w)
}

// installWeights makes a copy of w the active weights and lays the live
// axis out again when a pattern died or revived; otherwise only the
// live-axis weights are gathered again.
func (e *Engine) installWeights(w []int) {
	same := len(e.weights) == len(w)
	for k := 0; same && k < len(w); k++ {
		same = (w[k] == 0) == (e.weights[k] == 0)
	}
	e.weights = append(e.weights[:0], w...)
	if !same {
		e.layoutLive()
	}
	e.liveW = e.liveW[:0]
	for _, k := range e.liveIdx {
		e.liveW = append(e.liveW, e.weights[k])
	}
}

// layoutLive derives the live axis from the active weights and gathers
// the tip rows onto it; with no dead pattern the rows are the pattern
// matrix itself.
func (e *Engine) layoutLive() {
	n := e.pat.NumPatterns()
	e.livePos = e.livePos[:0]
	e.liveIdx = e.liveIdx[:0]
	for k, w := range e.weights {
		e.livePos = append(e.livePos, int32(len(e.liveIdx)))
		if w != 0 {
			e.liveIdx = append(e.liveIdx, int32(k))
		}
	}
	e.livePos = append(e.livePos, int32(len(e.liveIdx)))
	live := len(e.liveIdx)
	if live == n {
		copy(e.tips, e.pat.Data)
		return
	}
	if e.tipBuf == nil {
		e.tipBuf = make([]msa.State, len(e.tips)*n)
	}
	for t, row := range e.pat.Data {
		dst := e.tipBuf[t*n : t*n+live : t*n+live]
		for j, k := range e.liveIdx {
			dst[j] = row[k]
		}
		e.tips[t] = dst
	}
}

// ensure sizes the view table and the cost rows for a tree arena of
// `nodes` slots, and at least for a complete tree's, so a stepwise
// addition sizes them once. Rows are not preserved: every job recomputes
// each cost it reads.
func (e *Engine) ensure(nodes int) {
	nodes = max(nodes, 2*e.pat.NumTaxa()-2)
	for len(e.views) < 3*nodes {
		e.views = append(e.views, nil)
	}
	if 3*nodes <= e.costStride {
		return
	}
	e.costStride = (3*nodes + 7) / 8 * 8 // whole cache lines per range
	e.costs = make([]int, e.pool.Workers()*e.costStride)
}

// source returns the view from u toward v: a tip's row, or the buffer of
// u's slot for v (allocated on first use).
func (e *Engine) source(t *tree.Tree, u, v int) ([]msa.State, int) {
	n := &t.Nodes[u]
	if n.IsTip() {
		return e.tips[n.Taxon], u * 3
	}
	id := u*3 + slotOf(n, v)
	if e.views[id] == nil {
		e.views[id] = make([]msa.State, e.pat.NumPatterns())
	}
	return e.views[id], id
}

func slotOf(n *tree.Node, v int) int {
	for s, w := range n.Neighbors {
		if w == v {
			return s
		}
	}
	panic(fmt.Sprintf("parsimony: node %d is not adjacent to %d", n.ID, v))
}

// queueView appends the step computing the view from inner node u toward
// its neighbour v out of the views toward u of its other two neighbours.
func (e *Engine) queueView(t *tree.Tree, u, v int) {
	var in [2]int
	j := 0
	for _, w := range t.Nodes[u].Neighbors {
		if w >= 0 && w != v {
			if j == 2 {
				panic(fmt.Sprintf("parsimony: node %d has more than two neighbours besides %d", u, v))
			}
			in[j] = w
			j++
		}
	}
	if j != 2 {
		panic(fmt.Sprintf("parsimony: node %d has %d neighbours besides %d", u, j, v))
	}
	dst, dstID := e.source(t, u, v)
	l, lID := e.source(t, in[0], u)
	r, rID := e.source(t, in[1], u)
	e.steps = append(e.steps, fitchStep{dst: dst, l: l, r: r, dstID: dstID, lID: lID, rID: rID})
}

// planViews lists the views of t in dependency order, seen from the tip
// root: the views toward root (children before parents), then, when
// away is set, the views away from it (parents before children).
func (e *Engine) planViews(t *tree.Tree, root int, away bool) {
	e.ensure(t.MaxNodeID())
	e.steps = e.steps[:0]
	e.pre = append(e.pre[:0], [2]int{t.Nodes[root].Neighbors[0], root})
	for i := 0; i < len(e.pre); i++ {
		u, p := e.pre[i][0], e.pre[i][1]
		for _, c := range t.Nodes[u].Neighbors {
			if c >= 0 && c != p {
				e.pre = append(e.pre, [2]int{c, u})
			}
		}
	}
	for i := len(e.pre) - 1; i >= 0; i-- {
		if u, p := e.pre[i][0], e.pre[i][1]; !t.Nodes[u].IsTip() {
			e.queueView(t, u, p)
		}
	}
	if !away {
		return
	}
	for _, up := range e.pre {
		if u, p := up[0], up[1]; !t.Nodes[u].IsTip() {
			for _, c := range t.Nodes[u].Neighbors {
				if c >= 0 && c != p {
					e.queueView(t, u, c)
				}
			}
		}
	}
}

// rootTip returns the lowest-numbered attached tip of t.
func (e *Engine) rootTip(t *tree.Tree) int {
	for i := 0; i < e.pat.NumTaxa(); i++ {
		if t.Nodes[i].InUse && t.Nodes[i].Neighbors[0] >= 0 {
			return i
		}
	}
	panic("parsimony: tree has no attached tips")
}

// Score returns the weighted Fitch parsimony score of the tree (the
// minimum number of state changes, summed over patterns with weights).
// The tree may be partial (mid stepwise addition); scoring roots at the
// lowest-numbered attached tip. The whole fold — every view toward that
// tip plus the reduction at its edge — is one pool dispatch.
func (e *Engine) Score(t *tree.Tree) int {
	a := e.rootTip(t)
	e.planViews(t, a, false)
	e.cands = e.cands[:0]
	e.tip = e.tips[a]
	e.anchor, e.anchorID = e.source(t, t.Nodes[a].Neighbors[0], a)
	e.pool.Post(e, threads.JobParsimony)
	return int(e.pool.SumSlots(0))
}

// insertionScores returns, for every edge of t in t.Edges() order, the
// Score of t with taxon inserted on that edge — from one pool dispatch,
// leaving t untouched. The scores are the engine's and are overwritten
// by the next call.
func (e *Engine) insertionScores(t *tree.Tree, taxon int) ([]tree.Edge, []int) {
	edges := t.Edges()
	e.planViews(t, e.rootTip(t), true)
	e.cands = e.cands[:0]
	for _, ed := range edges {
		x, xID := e.source(t, ed.A, ed.B)
		y, yID := e.source(t, ed.B, ed.A)
		e.cands = append(e.cands, candidate{x: x, y: y, xID: xID, yID: yID})
	}
	e.tip = e.tips[taxon]
	e.pool.EnsureWide(len(e.cands))
	e.pool.Post(e, threads.JobParsimony)
	e.scores = e.scores[:0]
	for i := range e.cands {
		e.scores = append(e.scores, int(e.pool.SumWide(i)))
	}
	return edges, e.scores
}

// RunJob implements threads.JobRunner: walk the descriptor's views over
// the live patterns of the worker's range, keeping their costs in the
// range's row, then reduce either every candidate's score into the
// worker's wide row or the anchor edge's into its slot.
func (e *Engine) RunJob(code threads.JobCode, w int, r threads.Range) {
	if code != threads.JobParsimony {
		panic(fmt.Sprintf("parsimony: unknown job code %d", code))
	}
	lo, hi := int(e.livePos[r.Lo]), int(e.livePos[r.Hi])
	wt := e.liveW[lo:hi]
	cost := e.costs[w*e.costStride : (w+1)*e.costStride]
	for i := range e.steps {
		s := &e.steps[i]
		cost[s.dstID] = cost[s.lID] + cost[s.rID] + fitchSpan(s.dst[lo:hi], s.l[lo:hi], s.r[lo:hi], wt)
	}
	tip := e.tip[lo:hi]
	if len(e.cands) == 0 {
		e.pool.Slot(w)[0] = float64(cost[e.anchorID] + disjoint(e.anchor[lo:hi], tip, wt))
		return
	}
	ws := e.pool.WideSlot(w)
	for i := range e.cands {
		c := &e.cands[i]
		ws[i] = float64(cost[c.xID] + cost[c.yID] + joinSpan(c.x[lo:hi], c.y[lo:hi], tip, wt))
	}
}

// JobWork implements threads.WorkEstimator: the job's view steps and
// candidate joins (the anchor reduction counting as a step), in the
// pool's units of one CLV category of one newview entry per pattern. On
// a 2-vCPU Xeon guest BenchmarkPostCrossover's inline rows put that unit
// at ~3.5 ns (step_ns 4.7 for 4/3 of a unit) and BenchmarkFitchKernels
// puts a view step at ~1.8 ns per pattern and a candidate join at
// ~2.8 ns: a step is 1/2 unit, a join 4/5. The pool multiplies by its
// widest alignment-axis range, of which a range visits only the live
// share.
func (e *Engine) JobWork(threads.JobCode) int {
	tenths := 5*len(e.steps) + 8*len(e.cands)
	if len(e.cands) == 0 {
		tenths += 5
	}
	return tenths * len(e.liveIdx) / (10 * e.pat.NumPatterns())
}

// fitchSpan is one view step over a span of the live axis: dst gets the
// Fitch join of l and r, and the weighted count of disjoint pairs is
// returned. Branch-free — the disjointness of a pair is a mask, not a
// branch that would mispredict on every variable site.
func fitchSpan(dst, l, r []msa.State, w []int) int {
	l, r, w = l[:len(dst)], r[:len(dst)], w[:len(dst)]
	c := 0
	for k := range dst {
		a, b := l[k], r[k]
		in := a & b
		e := empty(in)
		dst[k] = in | (a|b)&msa.State(-e)
		c += w[k] & -int(e)
	}
	return c
}

// joinSpan is a candidate's share over a span of the live axis: the
// weighted changes on the two halves of the edge (x, y) joined, plus
// those on the taxon's pendant edge to tip.
func joinSpan(x, y, tip []msa.State, w []int) int {
	y, tip, w = y[:len(x)], tip[:len(x)], w[:len(x)]
	c := 0
	for k := range x {
		a, b := x[k], y[k]
		in := a & b
		e := empty(in)
		m := in | (a|b)&msa.State(-e)
		c += w[k] * int(e+empty(m&tip[k]))
	}
	return c
}

// disjoint returns the weighted count of patterns where a and b share no
// state: the changes on the edge joining the two views.
func disjoint(a, b []msa.State, w []int) int {
	b, w = b[:len(a)], w[:len(a)]
	c := 0
	for k := range a {
		c += w[k] & -int(empty(a[k]&b[k]))
	}
	return c
}

// empty is 1 for the empty state set and 0 for any other (states are
// 4-bit sets, so only 0 wraps around).
func empty(s msa.State) uint32 { return (uint32(s) - 1) >> 31 }

// StepwiseAddition builds a randomized stepwise-addition parsimony tree:
// taxa are inserted in random order, each at the edge minimizing the
// parsimony score. This is RAxML's starting-tree construction for ML and
// rapid-bootstrap searches; the insertion order randomization is what
// makes independent searches explore different basins.
func StepwiseAddition(pat *msa.Patterns, r *rng.RNG, pool *threads.Pool) *tree.Tree {
	e := New(pat, pool)
	return e.StepwiseAddition(r)
}

// StepwiseAddition builds a randomized stepwise-addition tree using the
// engine's current weights (so bootstrap replicates grow trees on their
// own resampled data). Each taxon costs one pool dispatch: every
// candidate edge is scored at once, and the taxon goes to the first edge
// (in t.Edges() order) with the lowest score.
func (e *Engine) StepwiseAddition(r *rng.RNG) *tree.Tree {
	pat := e.pat
	n := pat.NumTaxa()
	t := tree.New(pat.Names)
	order := r.Perm(n)
	// core: first three taxa around one internal node
	center := t.NewInternal()
	for i := 0; i < 3; i++ {
		t.Connect(center, order[i], tree.DefaultBranchLength)
	}
	for i := 3; i < n; i++ {
		taxon := order[i]
		edges, scores := e.insertionScores(t, taxon)
		best := 0
		for j, s := range scores {
			if s < scores[best] {
				best = j
			}
		}
		t.InsertTipOnEdge(taxon, edges[best], tree.DefaultBranchLength)
	}
	return t
}
