// Package msa implements multiple sequence alignments: the input data of
// every phylogenetic analysis in this repository.
//
// An alignment is a (taxa × characters) matrix of encoded nucleotide
// states. Because many columns are identical, the likelihood and parsimony
// kernels never iterate over raw columns; they iterate over the distinct
// columns ("patterns", Section 3 of the paper) with integer multiplicities.
// Compress performs that reduction. Bootstrap replicates are represented as
// alternative weight vectors over the same pattern set (see Resample),
// exactly as in RAxML, so a replicate costs no alignment copying.
package msa

import (
	"fmt"

	"raxml/internal/rng"
)

// State is a 4-bit nucleotide state set. Bit 0 = A, 1 = C, 2 = G, 3 = T.
// IUPAC ambiguity codes set several bits; gaps and N set all four.
type State uint8

// Canonical one-bit states.
const (
	A State = 1 << iota
	C
	G
	T
	// Gap is the fully ambiguous state used for '-', '?', 'N', etc.
	Gap State = 0x0F
)

// encode maps an input byte to its 4-bit state set.
var encode = func() [256]State {
	var m [256]State
	set := func(cs string, s State) {
		for i := 0; i < len(cs); i++ {
			m[cs[i]] = s
			// also accept lower case
			if cs[i] >= 'A' && cs[i] <= 'Z' {
				m[cs[i]+('a'-'A')] = s
			}
		}
	}
	set("A", A)
	set("C", C)
	set("G", G)
	set("TU", T)
	set("M", A|C)
	set("R", A|G)
	set("W", A|T)
	set("S", C|G)
	set("Y", C|T)
	set("K", G|T)
	set("V", A|C|G)
	set("H", A|C|T)
	set("D", A|G|T)
	set("B", C|G|T)
	set("NOX?-.", Gap)
	return m
}()

// decode maps a state set back to an IUPAC character.
var decode = func() [16]byte {
	var m [16]byte
	for i := range m {
		m[i] = '?'
	}
	pairs := map[State]byte{
		A: 'A', C: 'C', G: 'G', T: 'T',
		A | C: 'M', A | G: 'R', A | T: 'W',
		C | G: 'S', C | T: 'Y', G | T: 'K',
		A | C | G: 'V', A | C | T: 'H', A | G | T: 'D', C | G | T: 'B',
		Gap: '-',
	}
	for s, b := range pairs {
		m[s] = b
	}
	return m
}()

// EncodeChar converts one sequence character to a State.
// Unknown characters encode as Gap.
func EncodeChar(b byte) State {
	if s := encode[b]; s != 0 {
		return s
	}
	return Gap
}

// DecodeState converts a State back to its IUPAC character.
func DecodeState(s State) byte { return decode[s&0x0F] }

// IsAmbiguous reports whether the state allows more than one nucleotide.
func (s State) IsAmbiguous() bool { return s&(s-1) != 0 }

// Alignment is a multiple sequence alignment over the DNA alphabet.
type Alignment struct {
	// Names holds one label per taxon (row).
	Names []string
	// Seqs holds the encoded rows; all rows have equal length.
	Seqs [][]State
}

// NumTaxa returns the number of rows (taxa).
func (a *Alignment) NumTaxa() int { return len(a.Seqs) }

// NumChars returns the number of columns (aligned character positions).
func (a *Alignment) NumChars() int {
	if len(a.Seqs) == 0 {
		return 0
	}
	return len(a.Seqs[0])
}

// Validate checks structural invariants: at least 4 taxa for an unrooted
// tree, equal row lengths, non-empty distinct names.
func (a *Alignment) Validate() error {
	if len(a.Names) != len(a.Seqs) {
		return fmt.Errorf("msa: %d names for %d sequences", len(a.Names), len(a.Seqs))
	}
	if a.NumTaxa() < 4 {
		return fmt.Errorf("msa: need at least 4 taxa, have %d", a.NumTaxa())
	}
	if a.NumChars() == 0 {
		return fmt.Errorf("msa: alignment has no characters")
	}
	seen := make(map[string]bool, len(a.Names))
	for i, n := range a.Names {
		if n == "" {
			return fmt.Errorf("msa: taxon %d has empty name", i)
		}
		if seen[n] {
			return fmt.Errorf("msa: duplicate taxon name %q", n)
		}
		seen[n] = true
		if len(a.Seqs[i]) != a.NumChars() {
			return fmt.Errorf("msa: taxon %q has %d characters, want %d",
				n, len(a.Seqs[i]), a.NumChars())
		}
	}
	return nil
}

// Patterns is the compressed form of an alignment: the distinct columns
// with their multiplicities. All likelihood and parsimony computation —
// and therefore all fine-grained parallelism in this reproduction — runs
// over Patterns, never over raw columns.
type Patterns struct {
	// Names holds the taxon labels, row order identical to the source
	// alignment.
	Names []string
	// Data[i][k] is the state of taxon i at pattern k.
	Data [][]State
	// Weights[k] is the number of original columns collapsing to pattern
	// k. Sum(Weights) == NumChars of the source alignment.
	Weights []int
	// ColumnPattern maps each original column index to its pattern index;
	// bootstrap resampling needs it to convert column draws into pattern
	// weights.
	ColumnPattern []int
	// Parts holds the partition spans on the pattern axis for multi-gene
	// alignments (CompressPartitioned lays patterns out partition-major).
	// Empty for unpartitioned data; see PartRanges for the uniform view.
	Parts []PartRange
	// SitePartition maps each original column to its partition index;
	// nil for unpartitioned data.
	SitePartition []int
	// numChars caches the original column count.
	numChars int
}

// NumTaxa returns the number of taxa (rows).
func (p *Patterns) NumTaxa() int { return len(p.Data) }

// NumPatterns returns the number of distinct columns.
func (p *Patterns) NumPatterns() int { return len(p.Weights) }

// NumChars returns the column count of the source alignment.
func (p *Patterns) NumChars() int { return p.numChars }

// Compress reduces an alignment to its distinct site patterns.
//
// Patterns are ordered by first occurrence in the alignment, which makes
// the compression deterministic and keeps bootstrap weight vectors
// comparable across runs. This is the "number of patterns" quantity that
// Table 3 of the paper reports and that drives fine-grained scalability.
func Compress(a *Alignment) (*Patterns, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	nTaxa, nChars := a.NumTaxa(), a.NumChars()
	index := make(map[string]int, nChars)
	p := &Patterns{
		Names:         append([]string(nil), a.Names...),
		ColumnPattern: make([]int, nChars),
		numChars:      nChars,
	}
	key := make([]byte, nTaxa)
	for j := 0; j < nChars; j++ {
		for i := 0; i < nTaxa; i++ {
			key[i] = byte(a.Seqs[i][j])
		}
		k := string(key)
		idx, ok := index[k]
		if !ok {
			idx = len(p.Weights)
			index[k] = idx
			p.Weights = append(p.Weights, 0)
			col := make([]State, nTaxa)
			for i := 0; i < nTaxa; i++ {
				col[i] = a.Seqs[i][j]
			}
			// store column-major → row-major below
			if len(p.Data) == 0 {
				p.Data = make([][]State, nTaxa)
			}
			for i := 0; i < nTaxa; i++ {
				p.Data[i] = append(p.Data[i], col[i])
			}
		}
		p.Weights[idx]++
		p.ColumnPattern[j] = idx
	}
	return p, nil
}

// Resample draws one bootstrap replicate: characters are resampled with
// replacement, expressed as a new weight vector over the existing pattern
// set. The returned slice has NumPatterns entries summing to NumChars.
//
// This mirrors RAxML exactly: a replicate never copies sequence data, it
// only re-weights patterns, so a bootstrap search runs on the same memory
// as the original search. On partitioned data the draw is stratified per
// partition — each gene is resampled among its own columns — so every
// partition keeps its original column count (and non-zero weight mass),
// as RAxML does for -q analyses.
func (p *Patterns) Resample(r *rng.RNG) []int {
	w := make([]int, p.NumPatterns())
	if p.SitePartition == nil {
		for i := 0; i < p.numChars; i++ {
			col := r.Intn(p.numChars)
			w[p.ColumnPattern[col]]++
		}
		return w
	}
	// Stratified draw: group the columns of each partition, then sample
	// with replacement inside each group.
	partCols := make([][]int, p.NumParts())
	for j, pi := range p.SitePartition {
		partCols[pi] = append(partCols[pi], j)
	}
	for _, cols := range partCols {
		for range cols {
			col := cols[r.Intn(len(cols))]
			w[p.ColumnPattern[col]]++
		}
	}
	return w
}

// FromParts assembles a Patterns directly from its components — the
// deserialization constructor for pattern sets that crossed a process
// boundary (the alignment a distributed worker rank receives).
// ColumnPattern/SitePartition are left nil: such a set cannot be expanded
// or resampled, it is pure kernel input. numChars is set to the weight
// mass so reporting stays meaningful.
func FromParts(names []string, data [][]State, weights []int, parts []PartRange) *Patterns {
	p := &Patterns{Names: names, Data: data, Weights: weights, Parts: parts}
	for _, w := range weights {
		p.numChars += w
	}
	return p
}
