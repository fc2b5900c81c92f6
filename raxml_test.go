package raxml

import (
	"strings"
	"testing"
)

func TestParseAlignmentPHYLIP(t *testing.T) {
	data := []byte("4 8\nta ACGTACGT\ntb ACGTACGA\ntc ACGTACGC\ntd ACGTACGG\n")
	pat, err := ParseAlignment(data)
	if err != nil {
		t.Fatal(err)
	}
	if pat.NumTaxa() != 4 || pat.NumChars() != 8 {
		t.Fatalf("parsed %dx%d, want 4x8", pat.NumTaxa(), pat.NumChars())
	}
}

func TestParseAlignmentFASTA(t *testing.T) {
	data := []byte(">a\nACGT\n>b\nACGA\n>c\nACGC\n>d\nACGG\n")
	pat, err := ParseAlignment(data)
	if err != nil {
		t.Fatal(err)
	}
	if pat.NumTaxa() != 4 {
		t.Fatalf("parsed %d taxa, want 4", pat.NumTaxa())
	}
}

func TestGenerateFacade(t *testing.T) {
	pat, truth, err := Generate(GenerateConfig{Taxa: 8, Chars: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pat.NumTaxa() != 8 || truth.NumTaxa() != 8 {
		t.Fatal("facade generation inconsistent")
	}
}

func TestScheduleFacade(t *testing.T) {
	s := Schedule(10, 100)
	if s.TotalBootstraps() != 100 || s.TotalThorough() != 10 {
		t.Fatalf("Schedule(10,100) = %+v", s)
	}
}

func TestComprehensiveFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis skipped in -short mode")
	}
	pat, _, err := Generate(GenerateConfig{Taxa: 10, Chars: 300, Seed: 2, TreeScale: 0.5, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Comprehensive(pat, Options{
		Bootstraps: 10, Ranks: 2, Workers: 2,
		SeedParsimony: 12345, SeedBootstrap: 12345,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := res.AnnotatedNewick()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(nw, ");") {
		t.Fatalf("annotated newick malformed: %s", nw)
	}
}

func TestMultiSearchFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis skipped in -short mode")
	}
	pat, _, err := Generate(GenerateConfig{Taxa: 8, Chars: 200, Seed: 3, TreeScale: 0.5, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MultiSearch(pat, 3, Options{Ranks: 2, Workers: 1,
		SeedParsimony: 1, SeedBootstrap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 4 { // ceil(3/2)*2
		t.Fatalf("%d outcomes, want 4", len(res.All))
	}
}

func TestBootstrapsAndConsensusFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis skipped in -short mode")
	}
	pat, _, err := Generate(GenerateConfig{Taxa: 8, Chars: 300, Seed: 4, TreeScale: 0.5, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := Bootstraps(pat, Options{Bootstraps: 6, Ranks: 2, Workers: 1,
		SeedParsimony: 1, SeedBootstrap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(bs.Trees) != 6 {
		t.Fatalf("%d replicates, want 6", len(bs.Trees))
	}
	maj, err := MajorityConsensus(bs.Trees)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := GreedyConsensus(bs.Trees)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.NumInternalSplits() < maj.NumInternalSplits() {
		t.Fatal("greedy consensus less resolved than majority")
	}
	if !strings.HasSuffix(maj.Newick(), ";") {
		t.Fatal("consensus newick malformed")
	}
}
