package tree

import (
	"fmt"
	"math/bits"
)

// Bipartition is a split of the taxon set induced by removing one edge,
// stored as a canonical bitset over taxa: the side NOT containing taxon 0
// is recorded, so equal splits always compare equal. Bipartitions are the
// currency of bootstrap support and of the WC bootstopping test, which
// the paper notes requires "a framework for parallel operations on hash
// tables" — see package bootstop.
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

// Equal reports whether two bipartitions over the same taxon set are the
// same split.
func (b Bipartition) Equal(o Bipartition) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Hash returns a 64-bit FNV-1a hash of the canonical bitset, the hash the
// bootstopping bipartition table buckets on.
func (b Bipartition) Hash() uint64 {
	h := uint64(14695981039346656037)
	for _, w := range b.words {
		for j := 0; j < 8; j++ {
			h ^= uint64(byte(w >> (8 * uint(j))))
			h *= 1099511628211
		}
	}
	return h
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
