// Package parsimony implements Fitch parsimony: the fast, model-free
// scoring that RAxML uses to build randomized stepwise-addition starting
// trees for maximum-likelihood searches and rapid-bootstrap restarts.
//
// States are the 4-bit sets of package msa, so Fitch's set operations
// are single AND/OR instructions. Scoring runs through the same
// job-code engine as the likelihood kernels (in RAxML the parsimony
// kernel is distributed over the same worker crew): Score builds a
// Fitch traversal descriptor — the post-order list of internal nodes
// with resolved child buffers — and posts it to the pool as ONE
// threads.JobParsimony, whose workers walk the whole descriptor over
// their pattern ranges and reduce the score partial at the anchor
// edge. One Score call is one barrier crossing regardless of tree
// size.
package parsimony

import (
	"fmt"

	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// fitchEntry is one step of a Fitch traversal descriptor: combine the
// two children's state sets into the node's buffers. Child buffers are
// resolved by the master at build time; tips read straight from the
// pattern matrix with nil cost.
type fitchEntry struct {
	dstState       []msa.State
	dstCost        []int32
	lState, rState []msa.State
	lCost, rCost   []int32
}

// Engine scores trees under Fitch parsimony over one pattern set.
type Engine struct {
	pat     *msa.Patterns
	pool    *threads.Pool
	weights []int

	// state[node] holds the Fitch state sets for the subtree below node
	// when rooted at the current evaluation root; laid out per pattern.
	state [][]msa.State
	// cost[node][k] is the accumulated mutation count below node.
	cost [][]int32

	// trav is the Fitch descriptor buffer, reused across Score calls
	// (stepwise addition scores O(taxa²) trees on one engine).
	trav []fitchEntry
	// anchor reduction inputs: the tip-side states and the folded
	// subtree buffers at the scoring root edge.
	anchorA    []msa.State
	anchorB    []msa.State
	anchorCost []int32
}

// New creates a parsimony engine. A nil pool means serial execution.
func New(pat *msa.Patterns, pool *threads.Pool) *Engine {
	e := &Engine{pat: pat, pool: pool}
	if e.pool == nil {
		e.pool = threads.NewPool(1, pat.NumPatterns())
	}
	e.weights = append([]int(nil), pat.Weights...)
	return e
}

// SetWeights installs a bootstrap weight vector (nil restores the
// original weights).
func (e *Engine) SetWeights(w []int) {
	if w == nil {
		e.weights = append(e.weights[:0], e.pat.Weights...)
		return
	}
	if len(w) != e.pat.NumPatterns() {
		panic(fmt.Sprintf("parsimony: weight vector has %d entries, want %d", len(w), e.pat.NumPatterns()))
	}
	e.weights = append(e.weights[:0], w...)
}

func (e *Engine) ensure(n int) {
	for len(e.state) < n {
		e.state = append(e.state, nil)
		e.cost = append(e.cost, nil)
	}
}

func (e *Engine) buffersFor(node int) ([]msa.State, []int32) {
	if e.state[node] == nil {
		e.state[node] = make([]msa.State, e.pat.NumPatterns())
		e.cost[node] = make([]int32, e.pat.NumPatterns())
	}
	return e.state[node], e.cost[node]
}

// Score returns the weighted Fitch parsimony score of the tree (the
// minimum number of state changes, summed over patterns with weights).
// The tree may be partial (mid stepwise addition); scoring roots at the
// lowest-numbered attached tip. The whole fold — every internal node
// plus the anchor-edge reduction — is one pool dispatch.
func (e *Engine) Score(t *tree.Tree) int {
	e.ensure(t.MaxNodeID())
	// Root on the edge at the first attached tip: fold both sides, join.
	a := -1
	for i := 0; i < e.pat.NumTaxa(); i++ {
		if t.Nodes[i].InUse && t.Nodes[i].Neighbors[0] >= 0 {
			a = i
			break
		}
	}
	if a < 0 {
		panic("parsimony: tree has no attached tips")
	}
	b := t.Nodes[a].Neighbors[0]

	// Plan: resolve the post-order fold into a descriptor (master-only
	// work: buffer allocation and child lookup happen here, never in
	// workers).
	e.trav = e.trav[:0]
	for _, pair := range t.PostOrder(b, a) {
		e.queueFitch(t, pair[0], pair[1])
	}
	e.anchorA = e.tipState(a)
	e.anchorB, e.anchorCost = e.childBuffers(b)

	// Execute: one job walks the descriptor and reduces the score.
	e.pool.Post(e, threads.JobParsimony)
	return int(e.pool.SumSlots(0))
}

// queueFitch appends the descriptor entry computing `node` viewed from
// `parent`. Tips contribute no entry.
func (e *Engine) queueFitch(t *tree.Tree, node, parent int) {
	n := &t.Nodes[node]
	if n.IsTip() {
		return // tip states live in the pattern matrix
	}
	var children [2]int
	j := 0
	for _, v := range n.Neighbors {
		if v >= 0 && v != parent {
			children[j] = v
			j++
		}
	}
	if j != 2 {
		panic(fmt.Sprintf("parsimony: node %d has %d children from %d", node, j, parent))
	}
	dstState, dstCost := e.buffersFor(node)
	lState, lCost := e.childBuffers(children[0])
	rState, rCost := e.childBuffers(children[1])
	e.trav = append(e.trav, fitchEntry{
		dstState: dstState, dstCost: dstCost,
		lState: lState, lCost: lCost,
		rState: rState, rCost: rCost,
	})
}

// RunJob implements threads.JobRunner: walk the Fitch descriptor over
// the worker's pattern range, then reduce the anchor-edge score partial
// into the worker's slot. The slot is zeroed up front so an aborted
// job can never leak a previous job's partial (the pool is shared with
// the likelihood engine) into the score reduction; an aborted Score is
// meaningless and must be discarded by the caller.
func (e *Engine) RunJob(code threads.JobCode, w int, r threads.Range) {
	if code != threads.JobParsimony {
		panic(fmt.Sprintf("parsimony: unknown job code %d", code))
	}
	e.pool.Slot(w)[0] = 0
	for i := range e.trav {
		if e.pool.Aborted() {
			return
		}
		e.fitchRange(&e.trav[i], r)
	}
	sum := 0
	for k := r.Lo; k < r.Hi; k++ {
		wk := e.weights[k]
		if wk == 0 {
			continue
		}
		c := 0
		if e.anchorCost != nil {
			c = int(e.anchorCost[k])
		}
		if e.anchorA[k]&e.anchorB[k] == 0 {
			c++
		}
		sum += wk * c
	}
	e.pool.Slot(w)[0] = float64(sum)
}

// JobWork implements threads.WorkEstimator: the descriptor entries plus
// the anchor reduction. A Fitch step is a few byte operations, but its
// intersection test mispredicts on every variable site, and it measures
// within a factor of two of a one-category likelihood entry per pattern
// (7 ns on random data), so a step counts as one unit.
func (e *Engine) JobWork(threads.JobCode) int { return len(e.trav) + 1 }

// fitchRange applies one descriptor entry's Fitch set combination over
// a pattern range. Pattern k of a parent depends only on pattern k of
// its children, so descriptor order makes the walk barrier-free.
func (e *Engine) fitchRange(ent *fitchEntry, r threads.Range) {
	for k := r.Lo; k < r.Hi; k++ {
		if e.weights[k] == 0 {
			continue
		}
		ls := ent.lState[k]
		rs := ent.rState[k]
		var c int32
		if ent.lCost != nil {
			c += ent.lCost[k]
		}
		if ent.rCost != nil {
			c += ent.rCost[k]
		}
		inter := ls & rs
		if inter != 0 {
			ent.dstState[k] = inter
		} else {
			ent.dstState[k] = ls | rs
			c++
		}
		ent.dstCost[k] = c
	}
}

// tipState returns the pattern states of a taxon.
func (e *Engine) tipState(taxon int) []msa.State {
	return e.pat.Data[taxon]
}

func (e *Engine) childBuffers(child int) ([]msa.State, []int32) {
	// Tips read straight from the pattern matrix with zero cost.
	if child < e.pat.NumTaxa() {
		return e.tipState(child), nil
	}
	s, c := e.buffersFor(child)
	return s, c
}

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
// own resampled data).
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
		edges := t.Edges()
		bestEdge := edges[0]
		bestScore := int(^uint(0) >> 1)
		for _, edge := range edges {
			t.InsertTipOnEdge(taxon, edge, tree.DefaultBranchLength)
			s := e.Score(t)
			if s < bestScore {
				bestScore = s
				bestEdge = edge
			}
			t.RemoveTip(taxon)
		}
		t.InsertTipOnEdge(taxon, bestEdge, tree.DefaultBranchLength)
	}
	return t
}
