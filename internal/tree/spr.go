package tree

import "fmt"

// This file implements the topology edit moves of the RAxML search:
// subtree pruning and regrafting (SPR) — the move behind the "lazy SPR"
// rearrangements of the fast/slow/thorough searches — and nearest
// neighbor interchange (NNI).

// PrunedSubtree captures the state needed to restore or regraft a pruned
// subtree.
type PrunedSubtree struct {
	// Root is the node id of the subtree's root (the pruned side of the
	// removed edge).
	Root int
	// Attach is the internal node that connected the subtree to the rest
	// of the tree; it is detached but kept allocated for regrafting.
	Attach int
	// PendantLength is the length of the edge Root—Attach.
	PendantLength float64
	// OrigA, OrigB are the neighbors Attach joined; regrafting onto edge
	// (OrigA, OrigB) with OrigLenA/OrigLenB restores the original tree.
	OrigA, OrigB       int
	OrigLenA, OrigLenB float64
}

// Prune removes the subtree hanging off node `root` across the edge
// (root, attach), where attach must be an internal neighbor of root.
// The two remaining neighbors of attach are joined directly. The
// returned record allows Regraft/Restore.
func (t *Tree) Prune(root, attach int) (*PrunedSubtree, error) {
	if t.Nodes[attach].IsTip() {
		return nil, fmt.Errorf("tree: cannot prune across tip node %d", attach)
	}
	if t.Nodes[root].neighborSlot(attach) < 0 {
		return nil, fmt.Errorf("tree: %d and %d not adjacent", root, attach)
	}
	p := &PrunedSubtree{Root: root, Attach: attach}
	p.PendantLength = t.Disconnect(root, attach)

	var rest [3]int
	var lens [3]float64
	n := 0
	for s, v := range t.Nodes[attach].Neighbors {
		if v >= 0 {
			rest[n], lens[n] = v, t.Nodes[attach].Lengths[s]
			n++
		}
	}
	if n != 2 {
		// revert and fail: attach had degree != 3
		t.Connect(root, attach, p.PendantLength)
		return nil, fmt.Errorf("tree: attachment node %d has degree %d", attach, n+1)
	}
	p.OrigA, p.OrigB = rest[0], rest[1]
	p.OrigLenA, p.OrigLenB = lens[0], lens[1]
	t.Disconnect(attach, rest[0])
	t.Disconnect(attach, rest[1])
	t.Connect(rest[0], rest[1], lens[0]+lens[1])
	return p, nil
}

// Regraft inserts the pruned subtree into edge e, splitting it with the
// preserved attachment node. The split halves get half the edge length
// each; the pendant edge keeps its pruned length.
func (t *Tree) Regraft(p *PrunedSubtree, e Edge) error {
	if t.Nodes[e.A].neighborSlot(e.B) < 0 {
		return fmt.Errorf("tree: regraft target (%d,%d) is not an edge", e.A, e.B)
	}
	length := t.Disconnect(e.A, e.B)
	t.Connect(p.Attach, e.A, length/2)
	t.Connect(p.Attach, e.B, length/2)
	t.Connect(p.Attach, p.Root, p.PendantLength)
	return nil
}

// Restore undoes a Prune, reattaching the subtree exactly where it was
// with the original branch lengths.
func (t *Tree) Restore(p *PrunedSubtree) {
	t.Disconnect(p.OrigA, p.OrigB)
	t.Connect(p.Attach, p.OrigA, p.OrigLenA)
	t.Connect(p.Attach, p.OrigB, p.OrigLenB)
	t.Connect(p.Attach, p.Root, p.PendantLength)
}

// Unplug detaches the regrafted subtree from edge e (the edge it was
// regrafted into), restoring that edge, so another regraft can be tried.
// It is the inverse of Regraft while keeping the subtree pruned.
func (t *Tree) Unplug(p *PrunedSubtree, e Edge) {
	la := t.Disconnect(p.Attach, e.A)
	lb := t.Disconnect(p.Attach, e.B)
	t.Disconnect(p.Attach, p.Root)
	t.Connect(e.A, e.B, la+lb)
}

// RegraftCandidates lists edges within the given topological radius of
// the pruning point (edge (OrigA, OrigB)), excluding edges inside the
// pruned subtree. The radius is counted in edges walked from the original
// attachment edge, mirroring RAxML's rearrangement-distance parameter.
func (t *Tree) RegraftCandidates(p *PrunedSubtree, radius int) []Edge {
	return t.AppendRegraftCandidates(nil, p, radius)
}

// AppendRegraftCandidates appends RegraftCandidates' edges to dst, for
// callers that scan one pruning after another and reuse the buffer. The
// walk is breadth-first outward from both ends of the reunion edge; the
// main component is a tree, so it reaches every edge once and needs no
// visited set.
func (t *Tree) AppendRegraftCandidates(dst []Edge, p *PrunedSubtree, radius int) []Edge {
	type visit struct {
		node, from int
		depth      int
	}
	// The queue never holds more entries than there are candidates; the
	// stack buffer covers a radius-15 neighbourhood without allocating.
	var qbuf [128]visit
	queue := append(qbuf[:0],
		visit{p.OrigA, p.OrigB, 0},
		visit{p.OrigB, p.OrigA, 0},
	)
	addEdge := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		dst = append(dst, Edge{a, b})
	}
	// The direct reunion edge (OrigA, OrigB) regrafts back to the original
	// position — include it so "no change" is always a candidate.
	addEdge(p.OrigA, p.OrigB)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if v.depth >= radius {
			continue
		}
		for _, nb := range t.Nodes[v.node].Neighbors {
			if nb < 0 || nb == v.from {
				continue
			}
			addEdge(v.node, nb)
			queue = append(queue, visit{nb, v.node, v.depth + 1})
		}
	}
	return dst
}

// SPR performs a complete subtree-prune-regraft: prune the subtree rooted
// at `root` (across edge root—attach) and reinsert it into edge e.
// It returns the record needed to undo the move via UndoSPR.
func (t *Tree) SPR(root, attach int, e Edge) (*PrunedSubtree, error) {
	p, err := t.Prune(root, attach)
	if err != nil {
		return nil, err
	}
	if err := t.Regraft(p, e); err != nil {
		t.Restore(p)
		return nil, err
	}
	return p, nil
}

// UndoSPR reverses an SPR performed with the returned record and target
// edge.
func (t *Tree) UndoSPR(p *PrunedSubtree, e Edge) {
	t.Unplug(p, e)
	t.Restore(p)
}

// DanglingPrune detaches the subtree rooted at `root` together with its
// attachment node from the rest of the tree, keeping the pendant edge
// (root, attach) intact: attach keeps degree 1. The remaining component
// stays a valid (smaller) tree. This is the state RAxML's lazy SPR scan
// works in — the subtree's and the main tree's likelihood vectors both
// stay reusable while candidate insertion edges are scored.
func (t *Tree) DanglingPrune(root, attach int) (*PrunedSubtree, error) {
	p, err := t.Prune(root, attach)
	if err != nil {
		return nil, err
	}
	t.Connect(root, attach, p.PendantLength)
	return p, nil
}

// Plug inserts the dangling attachment node into edge e, splitting it in
// half. The pendant edge is untouched.
func (t *Tree) Plug(p *PrunedSubtree, e Edge) error {
	if t.Nodes[e.A].neighborSlot(e.B) < 0 {
		return fmt.Errorf("tree: plug target (%d,%d) is not an edge", e.A, e.B)
	}
	length := t.Disconnect(e.A, e.B)
	t.Connect(p.Attach, e.A, length/2)
	t.Connect(p.Attach, e.B, length/2)
	return nil
}

// UnplugKeepDangling removes the attachment node from edge e (restoring
// e with the summed half-lengths) while keeping the subtree dangling, so
// another Plug can be tried.
func (t *Tree) UnplugKeepDangling(p *PrunedSubtree, e Edge) {
	la := t.Disconnect(p.Attach, e.A)
	lb := t.Disconnect(p.Attach, e.B)
	t.Connect(e.A, e.B, la+lb)
}

// PlugBack restores a dangling subtree to its original position with the
// original branch lengths, undoing DanglingPrune.
func (t *Tree) PlugBack(p *PrunedSubtree) {
	t.Disconnect(p.OrigA, p.OrigB)
	t.Connect(p.Attach, p.OrigA, p.OrigLenA)
	t.Connect(p.Attach, p.OrigB, p.OrigLenB)
}

// NNIMove identifies one of the two alternative topologies around an
// internal edge.
type NNIMove struct {
	// Edge is the internal edge the interchange pivots on.
	Edge Edge
	// Variant selects which of the two exchanges to apply (0 or 1).
	Variant int
}

// NNI applies a nearest-neighbor interchange around internal edge e.
// With neighbors (a1, a2) of e.A and (b1, b2) of e.B (excluding each
// other), variant 0 swaps a2 and b1, variant 1 swaps a2 and b2.
// The same call with the same arguments undoes the move.
func (t *Tree) NNI(m NNIMove) error {
	a, b := m.Edge.A, m.Edge.B
	if t.Nodes[a].IsTip() || t.Nodes[b].IsTip() {
		return fmt.Errorf("tree: NNI edge (%d,%d) not internal", a, b)
	}
	if t.Nodes[a].neighborSlot(b) < 0 {
		return fmt.Errorf("tree: NNI target (%d,%d) is not an edge", a, b)
	}
	var aSide, bSide []int
	for _, v := range t.Nodes[a].Neighbors {
		if v >= 0 && v != b {
			aSide = append(aSide, v)
		}
	}
	for _, v := range t.Nodes[b].Neighbors {
		if v >= 0 && v != a {
			bSide = append(bSide, v)
		}
	}
	if len(aSide) != 2 || len(bSide) != 2 {
		return fmt.Errorf("tree: NNI endpoints have unexpected degrees")
	}
	x := aSide[1]
	y := bSide[m.Variant%2]
	lx := t.Disconnect(a, x)
	ly := t.Disconnect(b, y)
	t.Connect(a, y, ly)
	t.Connect(b, x, lx)
	return nil
}
