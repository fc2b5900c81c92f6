// Package consensus builds consensus trees from sets of tree replicates:
// the standard summary of a bootstrap-only analysis (the paper's
// analysis type 2) and the output RAxML's -J option produces.
//
// Consensus trees are generally multifurcating, so this package has its
// own lightweight rooted-hierarchy representation rather than the
// strictly binary unrooted tree.Tree.
package consensus

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"raxml/internal/tree"
)

// Split is one bipartition with its replicate frequency.
type Split struct {
	// Bits is the canonical side (not containing taxon 0) as a bitset.
	Bits []uint64
	// Count is the number of replicates containing the split.
	Count int
	// Frequency is Count / total replicates.
	Frequency float64
}

// size returns the number of taxa on the canonical side.
func (s Split) size() int {
	n := 0
	for _, w := range s.Bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// contains reports whether a's side is a superset of b's side.
func contains(a, b []uint64) bool {
	for i := range a {
		if b[i]&^a[i] != 0 {
			return false
		}
	}
	return true
}

// disjoint reports whether the sides share no taxa.
func disjoint(a, b []uint64) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return false
		}
	}
	return true
}

// Compatible reports whether two canonical splits can coexist in one
// tree: the sides must nest or be disjoint (their complements both
// contain taxon 0, so the fourth Buneman intersection is never empty).
func Compatible(a, b Split) bool {
	return disjoint(a.Bits, b.Bits) || contains(a.Bits, b.Bits) || contains(b.Bits, a.Bits)
}

// CountSplits returns the distinct non-trivial bipartitions of the
// replicate trees with their counts, by split id (ascending key order).
// All trees must share one taxon set; n is its size.
func CountSplits(trees []*tree.Tree) ([]*Split, int, error) {
	if len(trees) == 0 {
		return nil, 0, fmt.Errorf("consensus: no trees")
	}
	tally, err := tree.TallySplits(trees)
	if err != nil {
		return nil, 0, err
	}
	n := tally.Taxa
	out := make([]*Split, len(tally.Bips))
	for id, bp := range tally.Bips {
		words := make([]uint64, (n+63)/64)
		for taxon := 0; taxon < n; taxon++ {
			if bp.Contains(taxon) {
				words[taxon/64] |= 1 << (uint(taxon) % 64)
			}
		}
		c := tally.Counts[id]
		out[id] = &Split{Bits: words, Count: c, Frequency: float64(c) / float64(len(trees))}
	}
	return out, n, nil
}

// Tree is a rooted, possibly multifurcating consensus tree.
type Tree struct {
	// TaxonNames is the shared taxon set.
	TaxonNames []string
	// Root is the top of the hierarchy (contains all taxa).
	Root *Node
}

// Node is one vertex of a consensus tree.
type Node struct {
	// Taxon is the taxon index for leaves, -1 for internal nodes.
	Taxon int
	// Support is the replicate percentage of the cluster (internal
	// nodes; 0 for the root).
	Support int
	// Children are the node's subtrees.
	Children []*Node
}

// sortedSplits orders the splits by descending frequency in place; ties
// keep split-id (key) order.
func sortedSplits(splits []*Split) []*Split {
	sort.SliceStable(splits, func(i, j int) bool { return splits[i].Count > splits[j].Count })
	return splits
}

// Majority builds the majority-rule consensus: splits occurring in more
// than `threshold` of the replicates (0.5 = standard MR). Such splits
// are automatically pairwise compatible for threshold >= 0.5.
func Majority(trees []*tree.Tree, threshold float64) (*Tree, error) {
	if threshold < 0.5 {
		return nil, fmt.Errorf("consensus: majority threshold %g < 0.5 is not guaranteed compatible; use Greedy", threshold)
	}
	counts, n, err := CountSplits(trees)
	if err != nil {
		return nil, err
	}
	var chosen []*Split
	for _, s := range sortedSplits(counts) {
		if s.Frequency > threshold {
			chosen = append(chosen, s)
		}
	}
	return assemble(trees[0].TaxonNames, n, chosen)
}

// Greedy builds the greedy (MRE) consensus: splits are added in
// descending frequency order whenever compatible with everything chosen
// so far, resolving the tree further than strict majority.
func Greedy(trees []*tree.Tree) (*Tree, error) {
	counts, n, err := CountSplits(trees)
	if err != nil {
		return nil, err
	}
	var chosen []*Split
	for _, s := range sortedSplits(counts) {
		ok := true
		for _, c := range chosen {
			if !Compatible(*s, *c) {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, s)
		}
	}
	return assemble(trees[0].TaxonNames, n, chosen)
}

// assemble turns a compatible (laminar) split family into a hierarchy:
// each cluster's parent is the smallest strictly containing cluster (or
// the root), and each taxon leaf hangs off the smallest cluster
// containing it.
func assemble(taxonNames []string, n int, splits []*Split) (*Tree, error) {
	// Largest first, so every cluster's enclosing clusters precede it.
	sort.SliceStable(splits, func(i, j int) bool { return splits[i].size() > splits[j].size() })

	root := &Node{Taxon: -1}
	nodes := make([]*Node, len(splits))
	for i, s := range splits {
		nodes[i] = &Node{Taxon: -1, Support: int(s.Frequency*100 + 0.5)}
		// Parent: the smallest already-placed cluster strictly
		// containing s. Laminarity check: any overlap must nest.
		parent := root
		parentSize := n + 1
		for j := 0; j < i; j++ {
			if disjoint(splits[j].Bits, s.Bits) {
				continue
			}
			if !contains(splits[j].Bits, s.Bits) {
				return nil, fmt.Errorf("consensus: incompatible split family")
			}
			if sz := splits[j].size(); sz > s.size() && sz < parentSize {
				parent = nodes[j]
				parentSize = sz
			}
		}
		parent.Children = append(parent.Children, nodes[i])
	}
	// Leaves: attach each taxon to the smallest cluster containing it.
	for taxon := 0; taxon < n; taxon++ {
		parent := root
		parentSize := n + 1
		for i, s := range splits {
			if s.Bits[taxon/64]&(1<<(uint(taxon)%64)) != 0 {
				if sz := s.size(); sz < parentSize {
					parent = nodes[i]
					parentSize = sz
				}
			}
		}
		parent.Children = append(parent.Children, &Node{Taxon: taxon})
	}
	return &Tree{TaxonNames: taxonNames, Root: root}, nil
}

// NumInternalSplits counts the consensus tree's internal (non-root)
// clusters — its resolution.
func (t *Tree) NumInternalSplits() int {
	count := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			if c.Taxon < 0 {
				count++
				walk(c)
			}
		}
	}
	walk(t.Root)
	return count
}

// Newick renders the consensus with support labels on internal nodes.
func (t *Tree) Newick() string {
	var b strings.Builder
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Taxon >= 0 {
			b.WriteString(escapeName(t.TaxonNames[n.Taxon]))
			return
		}
		b.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteByte(',')
			}
			walk(c)
		}
		b.WriteByte(')')
		if n != t.Root && n.Support > 0 {
			fmt.Fprintf(&b, "%d", n.Support)
		}
	}
	walk(t.Root)
	b.WriteString(";")
	return b.String()
}

func escapeName(name string) string {
	if strings.ContainsAny(name, "():;,[]' \t") {
		return "'" + strings.ReplaceAll(name, "'", "''") + "'"
	}
	return name
}
