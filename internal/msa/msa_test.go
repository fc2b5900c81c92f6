package msa

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"raxml/internal/rng"
)

func alignFromPairs(pairs ...string) *Alignment {
	a := &Alignment{}
	for i := 0; i+1 < len(pairs); i += 2 {
		a.Names = append(a.Names, pairs[i])
		row := make([]State, len(pairs[i+1]))
		for j := 0; j < len(pairs[i+1]); j++ {
			row[j] = EncodeChar(pairs[i+1][j])
		}
		a.Seqs = append(a.Seqs, row)
	}
	return a
}

func TestEncodeDecode(t *testing.T) {
	cases := map[byte]State{
		'A': A, 'a': A, 'C': C, 'G': G, 'T': T, 'U': T, 'u': T,
		'R': A | G, 'Y': C | T, 'N': Gap, '-': Gap, '?': Gap,
	}
	for b, want := range cases {
		if got := EncodeChar(b); got != want {
			t.Errorf("EncodeChar(%q) = %04b, want %04b", b, got, want)
		}
	}
	if EncodeChar('Z') != Gap {
		t.Error("unknown characters should encode as Gap")
	}
	for _, s := range []State{A, C, G, T, A | G, C | T, Gap} {
		if EncodeChar(DecodeState(s)) != s {
			t.Errorf("decode/encode roundtrip failed for %04b", s)
		}
	}
}

func TestIsAmbiguous(t *testing.T) {
	for _, s := range []State{A, C, G, T} {
		if s.IsAmbiguous() {
			t.Errorf("state %04b should not be ambiguous", s)
		}
	}
	for _, s := range []State{A | C, Gap, C | G | T} {
		if !s.IsAmbiguous() {
			t.Errorf("state %04b should be ambiguous", s)
		}
	}
}

func TestValidate(t *testing.T) {
	good := alignFromPairs("t1", "ACGT", "t2", "ACGA", "t3", "ACGC", "t4", "ACGG")
	if err := good.Validate(); err != nil {
		t.Fatalf("valid alignment rejected: %v", err)
	}
	tooFew := alignFromPairs("t1", "ACGT", "t2", "ACGT", "t3", "ACGT")
	if tooFew.Validate() == nil {
		t.Error("3-taxon alignment should be rejected")
	}
	dup := alignFromPairs("t1", "ACGT", "t1", "ACGA", "t3", "ACGC", "t4", "ACGG")
	if dup.Validate() == nil {
		t.Error("duplicate names should be rejected")
	}
	ragged := alignFromPairs("t1", "ACGT", "t2", "ACG", "t3", "ACGC", "t4", "ACGG")
	if ragged.Validate() == nil {
		t.Error("ragged rows should be rejected")
	}
}

func TestCompressBasic(t *testing.T) {
	// Columns: 0 and 2 identical, 1 and 3 identical, 4 unique.
	a := alignFromPairs(
		"t1", "AGAGC",
		"t2", "AGAGC",
		"t3", "CTCTA",
		"t4", "CTCTT",
	)
	p, err := Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPatterns() != 3 {
		t.Fatalf("got %d patterns, want 3", p.NumPatterns())
	}
	if p.NumChars() != 5 {
		t.Fatalf("NumChars = %d, want 5", p.NumChars())
	}
	if p.Weights[0] != 2 || p.Weights[1] != 2 || p.Weights[2] != 1 {
		t.Fatalf("weights = %v, want [2 2 1]", p.Weights)
	}
	wantCols := []int{0, 1, 0, 1, 2}
	for j, k := range p.ColumnPattern {
		if k != wantCols[j] {
			t.Fatalf("ColumnPattern = %v, want %v", p.ColumnPattern, wantCols)
		}
	}
}

func TestCompressExpandRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rng.New(seed)
		nTaxa := 4 + r.Intn(12)
		nChars := 1 + r.Intn(80)
		a := randomAlignment(r, nTaxa, nChars)
		p, err := Compress(a)
		if err != nil {
			return false
		}
		back := expand(p)
		if back.NumTaxa() != nTaxa || back.NumChars() != nChars {
			return false
		}
		for i := range a.Seqs {
			if back.Names[i] != a.Names[i] {
				return false
			}
			for j := range a.Seqs[i] {
				if back.Seqs[i][j] != a.Seqs[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randomAlignment(r *rng.RNG, nTaxa, nChars int) *Alignment {
	letters := []byte("ACGT")
	a := &Alignment{}
	for i := 0; i < nTaxa; i++ {
		a.Names = append(a.Names, "t"+string(rune('A'+i%26))+string(rune('0'+i/26)))
		row := make([]State, nChars)
		for j := range row {
			row[j] = EncodeChar(letters[r.Intn(4)])
		}
		a.Seqs = append(a.Seqs, row)
	}
	return a
}

func TestCompressDeterministic(t *testing.T) {
	r := rng.New(42)
	a := randomAlignment(r, 8, 100)
	p1, _ := Compress(a)
	p2, _ := Compress(a)
	if p1.NumPatterns() != p2.NumPatterns() {
		t.Fatal("compression not deterministic")
	}
	for k := range p1.Weights {
		if p1.Weights[k] != p2.Weights[k] {
			t.Fatal("weights differ between identical compressions")
		}
	}
}

func TestResampleConservesWeight(t *testing.T) {
	r := rng.New(7)
	a := randomAlignment(r, 6, 200)
	p, _ := Compress(a)
	for rep := 0; rep < 20; rep++ {
		w := p.Resample(r)
		if len(w) != p.NumPatterns() {
			t.Fatalf("resampled weight vector has %d entries, want %d", len(w), p.NumPatterns())
		}
		total := 0
		for _, wk := range w {
			if wk < 0 {
				t.Fatal("negative weight")
			}
			total += wk
		}
		if total != p.NumChars() {
			t.Fatalf("replicate weight sum = %d, want %d", total, p.NumChars())
		}
	}
}

func TestResampleReproducible(t *testing.T) {
	a := randomAlignment(rng.New(1), 5, 150)
	p, _ := Compress(a)
	w1 := p.Resample(rng.New(12345))
	w2 := p.Resample(rng.New(12345))
	for k := range w1 {
		if w1[k] != w2[k] {
			t.Fatal("resampling with identical seed produced different weights")
		}
	}
}

func TestPHYLIPRoundTrip(t *testing.T) {
	a := alignFromPairs(
		"alpha", "ACGTACGT",
		"beta", "ACGTACGA",
		"gamma", "ACGTACGC",
		"delta", "ACG-ACGN",
	)
	var buf bytes.Buffer
	if err := WritePHYLIP(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePHYLIP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTaxa() != 4 || back.NumChars() != 8 {
		t.Fatalf("roundtrip dims %dx%d, want 4x8", back.NumTaxa(), back.NumChars())
	}
	for i := range a.Seqs {
		if back.Names[i] != a.Names[i] {
			t.Errorf("name %d: %q != %q", i, back.Names[i], a.Names[i])
		}
		for j := range a.Seqs[i] {
			if back.Seqs[i][j] != a.Seqs[i][j] {
				t.Errorf("taxon %d char %d differs after roundtrip", i, j)
			}
		}
	}
}

func TestPHYLIPInterleaved(t *testing.T) {
	input := `4 8
t1 ACGT
t2 ACGA
t3 ACGC
t4 ACGG

ACGT
ACGT
ACGT
ACGT
`
	a, err := ParsePHYLIP(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumChars() != 8 {
		t.Fatalf("interleaved parse found %d chars, want 8", a.NumChars())
	}
	if DecodeState(a.Seqs[0][4]) != 'A' {
		t.Error("continuation block not appended to first taxon")
	}
}

func TestPHYLIPErrors(t *testing.T) {
	cases := []string{
		"",
		"notanumber 10\nt1 ACGT",
		"4\n",
		"4 4\nt1 ACGT\nt2 ACGT\nt3 ACGT", // too few taxa
		"4 5\nt1 ACGT\nt2 ACGT\nt3 ACGT\nt4 ACGT", // short sequences
	}
	for _, in := range cases {
		if _, err := ParsePHYLIP(strings.NewReader(in)); err == nil {
			t.Errorf("ParsePHYLIP accepted malformed input %q", in)
		}
	}
}

func TestFASTARoundTrip(t *testing.T) {
	a := alignFromPairs(
		"tax1", strings.Repeat("ACGT", 40),
		"tax2", strings.Repeat("ACGA", 40),
		"tax3", strings.Repeat("TTGA", 40),
		"tax4", strings.Repeat("CCGA", 40),
	)
	var buf bytes.Buffer
	if err := writeFASTA(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ParseFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTaxa() != 4 || back.NumChars() != 160 {
		t.Fatalf("roundtrip dims %dx%d, want 4x160", back.NumTaxa(), back.NumChars())
	}
	for i := range a.Seqs {
		for j := range a.Seqs[i] {
			if back.Seqs[i][j] != a.Seqs[i][j] {
				t.Fatalf("taxon %d char %d differs after FASTA roundtrip", i, j)
			}
		}
	}
}

func TestSniff(t *testing.T) {
	fasta := ">a\nACGT\n>b\nACGA\n>c\nACGC\n>d\nACGG\n"
	phylip := "4 4\na ACGT\nb ACGA\nc ACGC\nd ACGG\n"
	for _, in := range []string{fasta, phylip} {
		a, err := Sniff([]byte(in))
		if err != nil {
			t.Fatalf("Sniff(%q): %v", in[:8], err)
		}
		if a.NumTaxa() != 4 {
			t.Fatalf("Sniff found %d taxa, want 4", a.NumTaxa())
		}
	}
	if _, err := Sniff([]byte("   \n")); err == nil {
		t.Error("Sniff accepted empty input")
	}
}

func BenchmarkCompress(b *testing.B) {
	a := randomAlignment(rng.New(3), 125, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResample(b *testing.B) {
	a := randomAlignment(rng.New(3), 125, 2000)
	p, _ := Compress(a)
	r := rng.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Resample(r)
	}
}

// expand reconstructs a full alignment from the patterns (columns ordered
// by ColumnPattern): the inverse of Compress up to column order.
func expand(p *Patterns) *Alignment {
	a := &Alignment{
		Names: append([]string(nil), p.Names...),
		Seqs:  make([][]State, p.NumTaxa()),
	}
	for i := range a.Seqs {
		a.Seqs[i] = make([]State, p.numChars)
		for j, k := range p.ColumnPattern {
			a.Seqs[i][j] = p.Data[i][k]
		}
	}
	return a
}

// writeFASTA writes the alignment in FASTA format with 70-column wrapping.
func writeFASTA(w io.Writer, a *Alignment) error {
	bw := bufio.NewWriter(w)
	for i, name := range a.Names {
		if _, err := fmt.Fprintf(bw, ">%s\n", name); err != nil {
			return err
		}
		seq := a.Seqs[i]
		for off := 0; off < len(seq); off += 70 {
			end := off + 70
			if end > len(seq) {
				end = len(seq)
			}
			for _, s := range seq[off:end] {
				if err := bw.WriteByte(DecodeState(s)); err != nil {
					return err
				}
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
