// Package tree implements unrooted binary phylogenetic trees: the
// structure every search, bootstrap replicate and likelihood evaluation
// in this repository operates on.
//
// Representation. A tree over n taxa (n >= 4 for a meaningful unrooted
// topology) has n tip nodes and up to n-2 internal nodes of degree 3,
// stored in a flat arena so trees can be cloned cheaply (coarse-grained
// workers clone trees constantly) and addressed by stable integer ids,
// which the likelihood engine uses to index its conditional likelihood
// vectors. Edges carry branch lengths in expected substitutions per site.
package tree

import (
	"fmt"
	"math"
	"sort"
)

// DefaultBranchLength is the initial branch length RAxML assigns before
// optimization.
const DefaultBranchLength = 0.1

// MinBranchLength and MaxBranchLength bound branch-length optimization.
const (
	MinBranchLength = 1e-8
	MaxBranchLength = 15.0
)

// Node is one vertex of the tree. Tips have degree 1 (only Neighbors[0]
// used); internal nodes have degree 3.
type Node struct {
	// ID is the node's index in Tree.Nodes; stable across edits.
	ID int
	// Taxon is the taxon index for tips, -1 for internal nodes.
	Taxon int
	// Neighbors holds adjacent node ids (1 entry used for tips, 3 for
	// internal nodes). Unused entries are -1.
	Neighbors [3]int
	// Lengths[i] is the branch length of the edge to Neighbors[i].
	Lengths [3]float64
	// InUse marks arena slots that belong to the current topology.
	InUse bool
}

// Degree returns the number of used neighbor slots.
func (n *Node) Degree() int {
	d := 0
	for _, v := range n.Neighbors {
		if v >= 0 {
			d++
		}
	}
	return d
}

// IsTip reports whether the node is a leaf.
func (n *Node) IsTip() bool { return n.Taxon >= 0 }

// neighborSlot returns the index in n.Neighbors pointing at id, or -1.
func (n *Node) neighborSlot(id int) int {
	for i, v := range n.Neighbors {
		if v == id {
			return i
		}
	}
	return -1
}

// Tree is an unrooted phylogenetic tree over a fixed taxon set.
type Tree struct {
	// TaxonNames[i] is the label of taxon i.
	TaxonNames []string
	// Nodes is the node arena; tips occupy slots [0, len(TaxonNames)).
	Nodes []Node
	// free lists arena slots available for reuse after prune operations.
	free []int
}

// New creates a tree arena for the given taxa with no edges. Tip i
// occupies node slot i. Internal nodes are allocated on demand.
func New(taxonNames []string) *Tree {
	t := &Tree{TaxonNames: append([]string(nil), taxonNames...)}
	t.Nodes = make([]Node, len(taxonNames), 2*len(taxonNames))
	for i := range t.Nodes {
		t.Nodes[i] = Node{ID: i, Taxon: i, Neighbors: [3]int{-1, -1, -1}, InUse: true}
	}
	return t
}

// NumTaxa returns the number of taxa in the tree's taxon set.
func (t *Tree) NumTaxa() int { return len(t.TaxonNames) }

// MaxNodeID returns the arena size; likelihood engines size their CLV
// arrays with it.
func (t *Tree) MaxNodeID() int { return len(t.Nodes) }

// NewInternal allocates an internal node and returns its id.
func (t *Tree) NewInternal() int {
	if k := len(t.free); k > 0 {
		id := t.free[k-1]
		t.free = t.free[:k-1]
		t.Nodes[id] = Node{ID: id, Taxon: -1, Neighbors: [3]int{-1, -1, -1}, InUse: true}
		return id
	}
	id := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{ID: id, Taxon: -1, Neighbors: [3]int{-1, -1, -1}, InUse: true})
	return id
}

// releaseInternal returns an internal node slot to the free list.
func (t *Tree) releaseInternal(id int) {
	t.Nodes[id].InUse = false
	t.Nodes[id].Neighbors = [3]int{-1, -1, -1}
	t.free = append(t.free, id)
}

// Connect links nodes a and b with an edge of the given length.
// It panics if either node has no free neighbor slot (programming error).
func (t *Tree) Connect(a, b int, length float64) {
	as := t.Nodes[a].neighborSlot(-1)
	bs := t.Nodes[b].neighborSlot(-1)
	if as < 0 || bs < 0 {
		panic(fmt.Sprintf("tree: Connect(%d,%d): no free slot", a, b))
	}
	t.Nodes[a].Neighbors[as] = b
	t.Nodes[a].Lengths[as] = length
	t.Nodes[b].Neighbors[bs] = a
	t.Nodes[b].Lengths[bs] = length
}

// Disconnect removes the edge between a and b and returns its length.
func (t *Tree) Disconnect(a, b int) float64 {
	as := t.Nodes[a].neighborSlot(b)
	bs := t.Nodes[b].neighborSlot(a)
	if as < 0 || bs < 0 {
		panic(fmt.Sprintf("tree: Disconnect(%d,%d): not adjacent", a, b))
	}
	length := t.Nodes[a].Lengths[as]
	t.Nodes[a].Neighbors[as] = -1
	t.Nodes[b].Neighbors[bs] = -1
	return length
}

// EdgeLength returns the length of edge (a,b).
func (t *Tree) EdgeLength(a, b int) float64 {
	s := t.Nodes[a].neighborSlot(b)
	if s < 0 {
		panic(fmt.Sprintf("tree: EdgeLength(%d,%d): not adjacent", a, b))
	}
	return t.Nodes[a].Lengths[s]
}

// SetEdgeLength sets the length of edge (a,b) on both endpoints,
// clamping into [MinBranchLength, MaxBranchLength].
func (t *Tree) SetEdgeLength(a, b int, length float64) {
	if length < MinBranchLength {
		length = MinBranchLength
	}
	if length > MaxBranchLength {
		length = MaxBranchLength
	}
	as := t.Nodes[a].neighborSlot(b)
	bs := t.Nodes[b].neighborSlot(a)
	if as < 0 || bs < 0 {
		panic(fmt.Sprintf("tree: SetEdgeLength(%d,%d): not adjacent", a, b))
	}
	t.Nodes[a].Lengths[as] = length
	t.Nodes[b].Lengths[bs] = length
}

// Edge identifies an undirected edge by its endpoint ids, A < B.
type Edge struct{ A, B int }

// Edges returns all edges of the tree in deterministic order.
func (t *Tree) Edges() []Edge {
	var es []Edge
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if !n.InUse {
			continue
		}
		for _, v := range n.Neighbors {
			if v > n.ID {
				es = append(es, Edge{n.ID, v})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].A != es[j].A {
			return es[i].A < es[j].A
		}
		return es[i].B < es[j].B
	})
	return es
}

// InternalEdges returns edges whose both endpoints are internal nodes:
// the edges that carry bipartition/bootstrap support.
func (t *Tree) InternalEdges() []Edge {
	var es []Edge
	for _, e := range t.Edges() {
		if !t.Nodes[e.A].IsTip() && !t.Nodes[e.B].IsTip() {
			es = append(es, e)
		}
	}
	return es
}

// Clone returns a deep copy sharing no mutable state with t.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		TaxonNames: t.TaxonNames, // immutable after construction
		Nodes:      append([]Node(nil), t.Nodes...),
		free:       append([]int(nil), t.free...),
	}
	return c
}

// Validate checks the structural invariants of a complete unrooted binary
// tree: every tip has degree 1, every in-use internal node degree 3,
// adjacency is symmetric with matching lengths, the tree is connected,
// and |edges| == 2n-3.
func (t *Tree) Validate() error {
	n := t.NumTaxa()
	if n < 4 {
		return fmt.Errorf("tree: %d taxa, need >= 4", n)
	}
	inUse := 0
	for i := range t.Nodes {
		node := &t.Nodes[i]
		if !node.InUse {
			continue
		}
		inUse++
		deg := node.Degree()
		if node.IsTip() && deg != 1 {
			return fmt.Errorf("tree: tip %d (%s) has degree %d", node.ID, t.TaxonNames[node.Taxon], deg)
		}
		if !node.IsTip() && deg != 3 {
			return fmt.Errorf("tree: internal node %d has degree %d", node.ID, deg)
		}
		for s, v := range node.Neighbors {
			if v < 0 {
				continue
			}
			if v >= len(t.Nodes) || !t.Nodes[v].InUse {
				return fmt.Errorf("tree: node %d links to dead node %d", node.ID, v)
			}
			back := t.Nodes[v].neighborSlot(node.ID)
			if back < 0 {
				return fmt.Errorf("tree: asymmetric edge %d->%d", node.ID, v)
			}
			if t.Nodes[v].Lengths[back] != node.Lengths[s] {
				return fmt.Errorf("tree: edge (%d,%d) length mismatch %g vs %g",
					node.ID, v, node.Lengths[s], t.Nodes[v].Lengths[back])
			}
			if node.Lengths[s] < 0 || math.IsNaN(node.Lengths[s]) {
				return fmt.Errorf("tree: edge (%d,%d) has invalid length %g", node.ID, v, node.Lengths[s])
			}
		}
	}
	wantNodes := 2*n - 2
	if inUse != wantNodes {
		return fmt.Errorf("tree: %d nodes in use, want %d", inUse, wantNodes)
	}
	es := t.Edges()
	if len(es) != 2*n-3 {
		return fmt.Errorf("tree: %d edges, want %d", len(es), 2*n-3)
	}
	// Connectivity: BFS from tip 0.
	seen := make([]bool, len(t.Nodes))
	queue := []int{0}
	seen[0] = true
	count := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		count++
		for _, v := range t.Nodes[id].Neighbors {
			if v >= 0 && !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	if count != inUse {
		return fmt.Errorf("tree: disconnected (%d of %d nodes reachable)", count, inUse)
	}
	return nil
}

// SubtreeTips returns the taxa on node's side of the edge (node, parent).
func (t *Tree) SubtreeTips(node, parent int) []int {
	var tips []int
	var walk func(n, par int)
	walk = func(n, par int) {
		if t.Nodes[n].IsTip() {
			tips = append(tips, t.Nodes[n].Taxon)
			return
		}
		for _, v := range t.Nodes[n].Neighbors {
			if v >= 0 && v != par {
				walk(v, n)
			}
		}
	}
	walk(node, parent)
	sort.Ints(tips)
	return tips
}

// TotalLength returns the sum of all branch lengths.
func (t *Tree) TotalLength() float64 {
	sum := 0.0
	for _, e := range t.Edges() {
		sum += t.EdgeLength(e.A, e.B)
	}
	return sum
}

// String renders the tree as Newick (convenience for debugging).
func (t *Tree) String() string {
	s, err := FormatNewick(t, nil)
	if err != nil {
		return fmt.Sprintf("<invalid tree: %v>", err)
	}
	return s
}
