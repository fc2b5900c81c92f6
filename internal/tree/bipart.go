package tree

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
)

// Bipartition is a split of the taxon set induced by removing one edge,
// stored as a canonical bitset over taxa: the side NOT containing taxon 0
// is recorded, so equal splits always have equal keys. Bipartitions are
// the currency of bootstrap support, consensus trees and the WC
// bootstopping test, which all read one Splits tally of a replicate set.
type Bipartition struct {
	words []uint64
	n     int // number of taxa
}

// NewBipartition creates a bipartition over n taxa from the membership of
// one side. The canonical side (without taxon 0) is stored.
func NewBipartition(n int, side []int) Bipartition {
	b := Bipartition{words: make([]uint64, (n+63)/64), n: n}
	for _, taxon := range side {
		if taxon < 0 || taxon >= n {
			panic(fmt.Sprintf("tree: taxon %d out of range [0,%d)", taxon, n))
		}
		b.words[taxon/64] |= 1 << (uint(taxon) % 64)
	}
	b.canonicalize()
	return b
}

func (b *Bipartition) canonicalize() {
	if b.words[0]&1 != 0 { // contains taxon 0 → flip
		for i := range b.words {
			b.words[i] = ^b.words[i]
		}
		// clear padding bits beyond n
		if rem := uint(b.n % 64); rem != 0 {
			b.words[len(b.words)-1] &= (1 << rem) - 1
		}
	}
}

// Size returns the number of taxa on the stored (canonical) side.
func (b Bipartition) Size() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsTrivial reports whether the split separates fewer than 2 taxa from
// the rest; trivial splits exist in every tree and carry no information.
func (b Bipartition) IsTrivial() bool {
	s := b.Size()
	return s < 2 || s > b.n-2
}

// Contains reports whether the canonical side includes the taxon.
func (b Bipartition) Contains(taxon int) bool {
	return b.words[taxon/64]&(1<<(uint(taxon)%64)) != 0
}

// Key returns a string usable as a map key (the canonical bitset bytes).
func (b Bipartition) Key() string {
	buf := make([]byte, 8*len(b.words))
	for i, w := range b.words {
		for j := 0; j < 8; j++ {
			buf[i*8+j] = byte(w >> (8 * uint(j)))
		}
	}
	return string(buf)
}

// Bipartitions returns the non-trivial splits of the tree keyed by the
// internal edge inducing them.
func (t *Tree) Bipartitions() map[Edge]Bipartition {
	out := make(map[Edge]Bipartition)
	for _, e := range t.InternalEdges() {
		side := t.SubtreeTips(e.A, e.B)
		bp := NewBipartition(t.NumTaxa(), side)
		if !bp.IsTrivial() {
			out[e] = bp
		}
	}
	return out
}

// BipartitionSet returns the set of non-trivial splits keyed by Key().
func (t *Tree) BipartitionSet() map[string]Bipartition {
	set := make(map[string]Bipartition)
	for _, bp := range t.Bipartitions() {
		set[bp.Key()] = bp
	}
	return set
}

// Splits tallies the non-trivial splits of a replicate set: each distinct
// split is interned once as an integer id, ids follow ascending Key order
// (never map order), and every replicate keeps the ids of its splits.
// Support values, consensus trees and the WC bootstopping test all count
// through it, so any sum over splits can be taken in id order.
type Splits struct {
	// Taxa is the size of the shared taxon set.
	Taxa int
	// Bips holds the splits by id.
	Bips []Bipartition
	// Counts holds, by id, the number of replicates containing the split.
	Counts []int
	// Trees holds each replicate's split ids.
	Trees [][]int
	ids   map[string]int
}

// TallySplits builds the tally of trees, which must share one taxon set.
func TallySplits(trees []*Tree) (*Splits, error) {
	s := &Splits{Trees: make([][]int, len(trees)), ids: make(map[string]int)}
	byKey := make(map[string]Bipartition)
	keys := make([][]string, len(trees))
	for i, t := range trees {
		if i == 0 {
			s.Taxa = t.NumTaxa()
		} else if t.NumTaxa() != s.Taxa {
			return nil, fmt.Errorf("tree: replicate %d has %d taxa, want %d", i, t.NumTaxa(), s.Taxa)
		}
		for k, bp := range t.BipartitionSet() {
			byKey[k] = bp
			keys[i] = append(keys[i], k)
		}
	}
	for id, k := range slices.Sorted(maps.Keys(byKey)) {
		s.ids[k] = id
		s.Bips = append(s.Bips, byKey[k])
	}
	s.Counts = make([]int, len(s.Bips))
	for i, ks := range keys {
		for _, k := range ks {
			id := s.ids[k]
			s.Trees[i] = append(s.Trees[i], id)
			s.Counts[id]++
		}
	}
	return s, nil
}

// Support maps every non-trivial internal edge of ref to the percentage
// of replicates containing its split, rounded half up; with no
// replicates the map is empty. The replicates must share ref's taxon set.
func Support(ref *Tree, replicates []*Tree) (map[Edge]int, error) {
	s, err := TallySplits(replicates)
	if err != nil {
		return nil, err
	}
	out := make(map[Edge]int)
	n := len(replicates)
	if n == 0 {
		return out, nil
	}
	for e, bp := range ref.Bipartitions() {
		hits := 0
		if id, ok := s.ids[bp.Key()]; ok {
			hits = s.Counts[id]
		}
		out[e] = (hits*100 + n/2) / n
	}
	return out, nil
}

// RobinsonFoulds returns the (unnormalized) Robinson–Foulds distance
// between two trees over the same taxon set: the number of splits present
// in exactly one of the trees.
func RobinsonFoulds(a, b *Tree) (int, error) {
	if a.NumTaxa() != b.NumTaxa() {
		return 0, fmt.Errorf("tree: RF over different taxon set sizes %d vs %d", a.NumTaxa(), b.NumTaxa())
	}
	for i := range a.TaxonNames {
		if a.TaxonNames[i] != b.TaxonNames[i] {
			return 0, fmt.Errorf("tree: RF over different taxon sets (%q vs %q)", a.TaxonNames[i], b.TaxonNames[i])
		}
	}
	sa := a.BipartitionSet()
	sb := b.BipartitionSet()
	d := 0
	for k := range sa {
		if _, ok := sb[k]; !ok {
			d++
		}
	}
	for k := range sb {
		if _, ok := sa[k]; !ok {
			d++
		}
	}
	return d, nil
}

// MaxRFDistance returns the maximum possible RF distance for n taxa,
// used to normalize: 2*(n-3).
func MaxRFDistance(n int) int { return 2 * (n - 3) }
