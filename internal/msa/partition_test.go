package msa

import (
	"strings"
	"testing"

	"raxml/internal/rng"
)

func TestParsePartitionFile(t *testing.T) {
	in := `
# a comment
DNA, gene1 = 1-10
DNA, gene2 = 11-20, 25-30
// another comment
GTRCAT, codon3 = 21-24\2
`
	defs, err := ParsePartitionFile(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 3 {
		t.Fatalf("parsed %d partitions, want 3", len(defs))
	}
	if defs[0].Name != "gene1" || defs[0].Ranges[0] != (SiteRange{0, 10, 1}) {
		t.Fatalf("gene1 parsed as %+v", defs[0])
	}
	if len(defs[1].Ranges) != 2 || defs[1].Ranges[1] != (SiteRange{24, 30, 1}) {
		t.Fatalf("gene2 parsed as %+v", defs[1])
	}
	if defs[2].Ranges[0] != (SiteRange{20, 24, 2}) {
		t.Fatalf("codon3 parsed as %+v", defs[2])
	}
}

func TestParsePartitionFileErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", "\n#only comments\n"},
		{"protein model", "WAG, gene1 = 1-10\n"},
		{"missing equals", "DNA, gene1 1-10\n"},
		{"missing model", "gene1 = 1-10\n"},
		{"bad range", "DNA, gene1 = 10-1\n"},
		{"bad stride", "DNA, gene1 = 1-10\\0\n"},
		{"duplicate name", "DNA, g = 1-5\nDNA, g = 6-10\n"},
		{"empty name", "DNA,  = 1-10\n"},
	}
	for _, tc := range cases {
		if _, err := ParsePartitionFile(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: parse accepted %q", tc.name, tc.in)
		}
	}
}

// partitionedTestAlignment builds a deterministic 6-taxon alignment
// whose halves have visibly different composition, so cross-partition
// pattern dedup would be detectable.
func partitionedTestAlignment(t *testing.T, nChars int) *Alignment {
	t.Helper()
	r := rng.New(99)
	letters := []byte("ACGT")
	a := &Alignment{}
	for i := 0; i < 6; i++ {
		a.Names = append(a.Names, string(rune('a'+i)))
		row := make([]State, nChars)
		for j := range row {
			row[j] = EncodeChar(letters[r.Intn(4)])
		}
		a.Seqs = append(a.Seqs, row)
	}
	return a
}

func TestCompressPartitionedLayout(t *testing.T) {
	a := partitionedTestAlignment(t, 40)
	defs := []PartitionDef{
		{ModelName: "DNA", Name: "g0", Ranges: []SiteRange{{0, 25, 1}}},
		{ModelName: "DNA", Name: "g1", Ranges: []SiteRange{{25, 40, 1}}},
	}
	p, err := CompressPartitioned(a, defs)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 2 {
		t.Fatalf("NumParts = %d, want 2", p.NumParts())
	}
	pr := p.PartRanges()
	if pr[0].Lo != 0 || pr[0].Hi != pr[1].Lo || pr[1].Hi != p.NumPatterns() {
		t.Fatalf("partition spans %v do not tile the pattern axis (%d patterns)", pr, p.NumPatterns())
	}
	// Weights within each partition sum to that partition's column count.
	w0 := 0
	for k := pr[0].Lo; k < pr[0].Hi; k++ {
		w0 += p.Weights[k]
	}
	w1 := 0
	for k := pr[1].Lo; k < pr[1].Hi; k++ {
		w1 += p.Weights[k]
	}
	if w0 != 25 || w1 != 15 {
		t.Fatalf("partition weight sums (%d, %d), want (25, 15)", w0, w1)
	}
	// Every column maps into its own partition's span, with the right data.
	for j := 0; j < a.NumChars(); j++ {
		pi := p.SitePartition[j]
		k := p.ColumnPattern[j]
		if k < pr[pi].Lo || k >= pr[pi].Hi {
			t.Fatalf("column %d (partition %d) mapped to pattern %d outside span %v", j, pi, k, pr[pi])
		}
		for i := 0; i < a.NumTaxa(); i++ {
			if p.Data[i][k] != a.Seqs[i][j] {
				t.Fatalf("column %d pattern %d taxon %d: state mismatch", j, k, i)
			}
		}
	}
	// Expand round-trips the alignment.
	back := expand(p)
	for i := range back.Seqs {
		for j := range back.Seqs[i] {
			if back.Seqs[i][j] != a.Seqs[i][j] {
				t.Fatalf("Expand mismatch at taxon %d column %d", i, j)
			}
		}
	}
}

func TestCompressPartitionedNoCrossPartitionDedup(t *testing.T) {
	// Identical columns on both sides of a partition boundary must stay
	// distinct patterns (each partition compresses independently).
	a := &Alignment{Names: []string{"a", "b", "c", "d"}}
	for i := 0; i < 4; i++ {
		a.Seqs = append(a.Seqs, []State{A, A, C, C})
	}
	defs := []PartitionDef{
		{ModelName: "DNA", Name: "g0", Ranges: []SiteRange{{0, 2, 1}}},
		{ModelName: "DNA", Name: "g1", Ranges: []SiteRange{{2, 4, 1}}},
	}
	p, err := CompressPartitioned(a, defs)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPatterns() != 2 {
		t.Fatalf("got %d patterns, want 2 (one per partition)", p.NumPatterns())
	}
	if p.Weights[0] != 2 || p.Weights[1] != 2 {
		t.Fatalf("weights %v, want [2 2]", p.Weights)
	}
}

func TestCompressPartitionedCoverageErrors(t *testing.T) {
	a := partitionedTestAlignment(t, 20)
	cases := []struct {
		name string
		defs []PartitionDef
	}{
		{"gap", []PartitionDef{
			{Name: "g0", Ranges: []SiteRange{{0, 10, 1}}},
			{Name: "g1", Ranges: []SiteRange{{12, 20, 1}}},
		}},
		{"overlap", []PartitionDef{
			{Name: "g0", Ranges: []SiteRange{{0, 12, 1}}},
			{Name: "g1", Ranges: []SiteRange{{10, 20, 1}}},
		}},
		{"out of range", []PartitionDef{
			{Name: "g0", Ranges: []SiteRange{{0, 25, 1}}},
		}},
	}
	for _, tc := range cases {
		if _, err := CompressPartitioned(a, tc.defs); err == nil {
			t.Errorf("%s: CompressPartitioned accepted bad coverage", tc.name)
		}
	}
}

func TestCompressPartitionedStridedCodons(t *testing.T) {
	a := partitionedTestAlignment(t, 12)
	defs := []PartitionDef{
		{Name: "pos12", Ranges: []SiteRange{{0, 12, 3}, {1, 12, 3}}},
		{Name: "pos3", Ranges: []SiteRange{{2, 12, 3}}},
	}
	p, err := CompressPartitioned(a, defs)
	if err != nil {
		t.Fatal(err)
	}
	pr := p.PartRanges()
	w := 0
	for k := pr[1].Lo; k < pr[1].Hi; k++ {
		w += p.Weights[k]
	}
	if w != 4 {
		t.Fatalf("pos3 partition weight %d, want 4", w)
	}
	for j := 2; j < 12; j += 3 {
		if p.SitePartition[j] != 1 {
			t.Fatalf("column %d assigned to partition %d, want 1", j, p.SitePartition[j])
		}
	}
}

func TestPartitionedResampleStratified(t *testing.T) {
	a := partitionedTestAlignment(t, 60)
	defs := ContiguousPartitions(60, 3)
	p, err := CompressPartitioned(a, defs)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	for rep := 0; rep < 10; rep++ {
		w := p.Resample(r)
		total := 0
		for _, x := range w {
			total += x
		}
		if total != 60 {
			t.Fatalf("replicate weight sum %d, want 60", total)
		}
		// Stratification: each partition keeps exactly its column count.
		for pi, pr := range p.PartRanges() {
			mass := 0
			for k := pr.Lo; k < pr.Hi; k++ {
				mass += w[k]
			}
			if mass != 20 {
				t.Fatalf("replicate %d: partition %d mass %d, want 20", rep, pi, mass)
			}
		}
	}
}

func TestFormatPartitionFileRoundTrip(t *testing.T) {
	defs := []PartitionDef{
		{ModelName: "DNA", Name: "gene0", Ranges: []SiteRange{{0, 100, 1}}},
		{ModelName: "DNA", Name: "gene1", Ranges: []SiteRange{{100, 160, 1}, {200, 230, 3}}},
	}
	text := FormatPartitionFile(defs)
	back, err := ParsePartitionFile(strings.NewReader(text))
	if err != nil {
		t.Fatalf("reparsing %q: %v", text, err)
	}
	if len(back) != len(defs) {
		t.Fatalf("round trip: %d defs, want %d", len(back), len(defs))
	}
	for i := range defs {
		if back[i].Name != defs[i].Name || len(back[i].Ranges) != len(defs[i].Ranges) {
			t.Fatalf("round trip def %d: %+v vs %+v", i, back[i], defs[i])
		}
		for j := range defs[i].Ranges {
			if back[i].Ranges[j] != defs[i].Ranges[j] {
				t.Fatalf("round trip def %d range %d: %+v vs %+v", i, j, back[i].Ranges[j], defs[i].Ranges[j])
			}
		}
	}
}

func TestContiguousPartitionsCover(t *testing.T) {
	defs := ContiguousPartitions(103, 4)
	covered := 0
	for _, d := range defs {
		for _, r := range d.Ranges {
			for s := r.Lo; s < r.Hi; s += r.Stride {
				covered++
			}
		}
	}
	if covered != 103 {
		t.Fatalf("contiguous partitions cover %d of 103 columns", covered)
	}
}
