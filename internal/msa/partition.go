package msa

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements multi-gene ("partitioned") alignments: RAxML's
// -q partition files assign every alignment column to a named partition
// so that each gene evolves under its own substitution model. The
// likelihood engine consumes the compressed form produced here: the
// pattern axis is laid out partition-major (all of partition 0's
// patterns, then partition 1's, ...), with the boundaries recorded as
// PartRange spans, so one worker stripe over the concatenated axis can
// cover (partition, pattern) work units without any per-site lookups.

// SiteRange is one contiguous 0-based, half-open [Lo, Hi) span of
// alignment columns with an optional stride (1 = every column; 3 =
// every third column, RAxML's codon-position syntax "a-b\3").
type SiteRange struct {
	Lo, Hi, Stride int
}

// PartitionDef is one parsed partition-file entry: a named set of
// alignment columns under one model token.
type PartitionDef struct {
	// ModelName is the per-partition model token of the file ("DNA",
	// "GTR", ...); only nucleotide tokens are accepted.
	ModelName string
	// Name is the partition label ("gene1").
	Name string
	// Ranges holds the column spans, in file order.
	Ranges []SiteRange
}

// ParsePartitionFile reads a RAxML-style -q partition file. Each
// non-blank line is
//
//	MODEL, name = range[, range...]
//
// where a range is "a-b" (1-based, inclusive), a single column "a", or
// a strided span "a-b\3" (also accepted with "/"), RAxML's codon
// syntax. Only nucleotide model tokens (DNA, or anything starting with
// GTR) are supported. Lines starting with '#' or "//" are comments.
func ParsePartitionFile(r io.Reader) ([]PartitionDef, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var defs []PartitionDef
	seen := make(map[string]bool)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		def, err := parsePartitionLine(line)
		if err != nil {
			return nil, fmt.Errorf("msa: partition file line %d: %v", lineNo, err)
		}
		if seen[def.Name] {
			return nil, fmt.Errorf("msa: partition file line %d: duplicate partition name %q", lineNo, def.Name)
		}
		seen[def.Name] = true
		defs = append(defs, def)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("msa: reading partition file: %v", err)
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("msa: partition file defines no partitions")
	}
	return defs, nil
}

func parsePartitionLine(line string) (PartitionDef, error) {
	var def PartitionDef
	comma := strings.Index(line, ",")
	if comma < 0 {
		return def, fmt.Errorf("missing model separator in %q (want \"MODEL, name = ranges\")", line)
	}
	model := strings.TrimSpace(line[:comma])
	up := strings.ToUpper(model)
	if up != "DNA" && !strings.HasPrefix(up, "GTR") {
		return def, fmt.Errorf("unsupported model token %q (only nucleotide models: DNA, GTR*)", model)
	}
	rest := line[comma+1:]
	eq := strings.Index(rest, "=")
	if eq < 0 {
		return def, fmt.Errorf("missing '=' in %q", line)
	}
	name := strings.TrimSpace(rest[:eq])
	if name == "" {
		return def, fmt.Errorf("empty partition name in %q", line)
	}
	def.ModelName = model
	def.Name = name
	for _, tok := range strings.Split(rest[eq+1:], ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return def, fmt.Errorf("empty range in %q", line)
		}
		r, err := parseSiteRange(tok)
		if err != nil {
			return def, err
		}
		def.Ranges = append(def.Ranges, r)
	}
	if len(def.Ranges) == 0 {
		return def, fmt.Errorf("partition %q has no ranges", name)
	}
	return def, nil
}

// parseSiteRange parses "a", "a-b", or "a-b\s" (1-based inclusive)
// into a 0-based half-open strided span.
func parseSiteRange(tok string) (SiteRange, error) {
	stride := 1
	for _, sep := range []string{"\\", "/"} {
		if i := strings.Index(tok, sep); i >= 0 {
			s, err := strconv.Atoi(strings.TrimSpace(tok[i+len(sep):]))
			if err != nil || s < 1 {
				return SiteRange{}, fmt.Errorf("bad stride in range %q", tok)
			}
			stride = s
			tok = strings.TrimSpace(tok[:i])
			break
		}
	}
	var lo, hi int
	if i := strings.Index(tok, "-"); i >= 0 {
		a, errA := strconv.Atoi(strings.TrimSpace(tok[:i]))
		b, errB := strconv.Atoi(strings.TrimSpace(tok[i+1:]))
		if errA != nil || errB != nil {
			return SiteRange{}, fmt.Errorf("bad range %q", tok)
		}
		lo, hi = a, b
	} else {
		a, err := strconv.Atoi(tok)
		if err != nil {
			return SiteRange{}, fmt.Errorf("bad range %q", tok)
		}
		lo, hi = a, a
	}
	if lo < 1 || hi < lo {
		return SiteRange{}, fmt.Errorf("range %q is not a 1-based ascending span", tok)
	}
	return SiteRange{Lo: lo - 1, Hi: hi, Stride: stride}, nil
}

// PartRange is one partition's span on the concatenated pattern axis of
// a partition-major Patterns: patterns [Lo, Hi) belong to the partition.
type PartRange struct {
	Name   string
	Lo, Hi int
}

// Len returns the partition's pattern count.
func (p PartRange) Len() int { return p.Hi - p.Lo }

// NumParts returns the number of partitions (1 for unpartitioned data).
func (p *Patterns) NumParts() int {
	if len(p.Parts) == 0 {
		return 1
	}
	return len(p.Parts)
}

// PartRanges returns the partition spans on the pattern axis. For
// unpartitioned data it synthesizes the single full-width span, so
// callers can treat every Patterns as partitioned.
func (p *Patterns) PartRanges() []PartRange {
	if len(p.Parts) == 0 {
		return []PartRange{{Name: "all", Lo: 0, Hi: p.NumPatterns()}}
	}
	return p.Parts
}

// PartStarts returns the pattern-axis start offset of every partition —
// the segment boundaries worker-stripe snapping must respect.
func (p *Patterns) PartStarts() []int {
	pr := p.PartRanges()
	out := make([]int, len(pr))
	for i, r := range pr {
		out[i] = r.Lo
	}
	return out
}

// CompressPartitioned reduces an alignment to per-partition site
// patterns: every partition's columns are compressed independently
// (patterns distinct *within* a partition, ordered by first occurrence)
// and the partitions are concatenated partition-major on the pattern
// axis. Every alignment column must be covered by exactly one
// partition; overlaps and gaps are errors, matching RAxML's -q checks.
func CompressPartitioned(a *Alignment, defs []PartitionDef) (*Patterns, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("msa: no partition definitions")
	}
	nTaxa, nChars := a.NumTaxa(), a.NumChars()

	// Assign every column to its partition, rejecting overlap and gaps.
	sitePart := make([]int, nChars)
	for j := range sitePart {
		sitePart[j] = -1
	}
	for pi, def := range defs {
		for _, r := range def.Ranges {
			if r.Lo >= nChars {
				return nil, fmt.Errorf("msa: partition %q range starts at column %d, alignment has %d",
					def.Name, r.Lo+1, nChars)
			}
			hi := r.Hi
			if hi > nChars {
				return nil, fmt.Errorf("msa: partition %q range ends at column %d, alignment has %d",
					def.Name, hi, nChars)
			}
			for j := r.Lo; j < hi; j += r.Stride {
				if sitePart[j] >= 0 {
					return nil, fmt.Errorf("msa: column %d assigned to both %q and %q",
						j+1, defs[sitePart[j]].Name, def.Name)
				}
				sitePart[j] = pi
			}
		}
	}
	for j, pi := range sitePart {
		if pi < 0 {
			return nil, fmt.Errorf("msa: column %d is not covered by any partition", j+1)
		}
	}

	// Compress each partition independently over its own columns.
	type partComp struct {
		index   map[string]int
		weights []int
		cols    [][]State // local pattern index -> column states
		colPat  []int     // per covered column (in order): local pattern
		columns []int     // per covered column: original column index
	}
	comps := make([]partComp, len(defs))
	for pi := range comps {
		comps[pi].index = make(map[string]int)
	}
	key := make([]byte, nTaxa)
	for j := 0; j < nChars; j++ {
		pc := &comps[sitePart[j]]
		for i := 0; i < nTaxa; i++ {
			key[i] = byte(a.Seqs[i][j])
		}
		k := string(key)
		idx, ok := pc.index[k]
		if !ok {
			idx = len(pc.weights)
			pc.index[k] = idx
			pc.weights = append(pc.weights, 0)
			col := make([]State, nTaxa)
			for i := 0; i < nTaxa; i++ {
				col[i] = a.Seqs[i][j]
			}
			pc.cols = append(pc.cols, col)
		}
		pc.weights[idx]++
		pc.colPat = append(pc.colPat, idx)
		pc.columns = append(pc.columns, j)
	}

	// Concatenate partition-major.
	p := &Patterns{
		Names:         append([]string(nil), a.Names...),
		Data:          make([][]State, nTaxa),
		ColumnPattern: make([]int, nChars),
		SitePartition: sitePart,
		numChars:      nChars,
	}
	total := 0
	for _, pc := range comps {
		total += len(pc.weights)
	}
	for i := range p.Data {
		p.Data[i] = make([]State, 0, total)
	}
	p.Weights = make([]int, 0, total)
	offset := 0
	for pi, def := range defs {
		pc := &comps[pi]
		if len(pc.weights) == 0 {
			return nil, fmt.Errorf("msa: partition %q covers no columns", def.Name)
		}
		for _, col := range pc.cols {
			for i := 0; i < nTaxa; i++ {
				p.Data[i] = append(p.Data[i], col[i])
			}
		}
		p.Weights = append(p.Weights, pc.weights...)
		for ci, j := range pc.columns {
			p.ColumnPattern[j] = offset + pc.colPat[ci]
		}
		p.Parts = append(p.Parts, PartRange{Name: def.Name, Lo: offset, Hi: offset + len(pc.weights)})
		offset += len(pc.weights)
	}
	return p, nil
}

// FormatPartitionFile renders partition definitions back to the -q file
// syntax (used by mkdata to emit partition files alongside alignments).
func FormatPartitionFile(defs []PartitionDef) string {
	var b strings.Builder
	for _, d := range defs {
		model := d.ModelName
		if model == "" {
			model = "DNA"
		}
		fmt.Fprintf(&b, "%s, %s = ", model, d.Name)
		for i, r := range d.Ranges {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d-%d", r.Lo+1, r.Hi)
			if r.Stride > 1 {
				fmt.Fprintf(&b, "\\%d", r.Stride)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ContiguousPartitions builds n equal contiguous partition definitions
// over nChars columns — the shape mkdata emits for synthetic multi-gene
// data. Partition i is named "gene<i>".
func ContiguousPartitions(nChars, n int) []PartitionDef {
	if n < 1 {
		n = 1
	}
	if n > nChars {
		n = nChars
	}
	defs := make([]PartitionDef, n)
	base, rem := nChars/n, nChars%n
	lo := 0
	for i := range defs {
		size := base
		if i < rem {
			size++
		}
		defs[i] = PartitionDef{
			ModelName: "DNA",
			Name:      fmt.Sprintf("gene%d", i),
			Ranges:    []SiteRange{{Lo: lo, Hi: lo + size, Stride: 1}},
		}
		lo += size
	}
	return defs
}
