package cli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"raxml/internal/msa"
	"raxml/internal/seqgen"
	"raxml/internal/tree"
)

// writeTestAlignment writes a small signal-bearing PHYLIP file.
func writeTestAlignment(t *testing.T, dir string) string {
	t.Helper()
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 8, Chars: 250, Seed: 5, TreeScale: 0.5, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "test.phy")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := msa.WritePHYLIP(f, a); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRaxmlComprehensive(t *testing.T) {
	if testing.Short() {
		t.Skip("full analysis skipped in -short mode")
	}
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)
	var out bytes.Buffer
	err := Raxml([]string{
		"-s", align, "-n", "t1", "-N", "10", "-R", "2", "-T", "1", "-w", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"RAxML_bestTree.t1", "RAxML_bipartitions.t1", "RAxML_info.t1"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s not written: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s empty", name)
		}
	}
	// The best tree must parse over the alignment's taxa.
	nw, _ := os.ReadFile(filepath.Join(dir, "RAxML_bestTree.t1"))
	names := make([]string, 8)
	for i := range names {
		names[i] = "taxon000" + string(rune('0'+i))
	}
	if _, err := tree.ParseNewick(strings.TrimSpace(string(nw)), names); err != nil {
		t.Fatalf("best tree unparseable: %v", err)
	}
	if !strings.Contains(out.String(), "Best log-likelihood") {
		t.Error("summary line missing from output")
	}
	// A replicate's kernels visit its live patterns only: resampling 250
	// columns leaves about a third of the patterns without weight.
	info, _ := os.ReadFile(filepath.Join(dir, "RAxML_info.t1"))
	_, line, _ := strings.Cut(string(info), "bootstrap patterns visited per replicate: ")
	var visited float64
	var patterns int
	if _, err := fmt.Sscanf(line, "%g of %d", &visited, &patterns); err != nil {
		t.Fatalf("no patterns-visited line in RAxML_info: %v", err)
	}
	if visited < 0.5*float64(patterns) || visited > 0.8*float64(patterns) {
		t.Errorf("replicates visit %.2f of %d patterns", visited, patterns)
	}
}

func TestRaxmlMultiSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("full analysis skipped in -short mode")
	}
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)
	var out bytes.Buffer
	err := Raxml([]string{
		"-s", align, "-n", "ms", "-f", "d", "-N", "3", "-R", "2", "-w", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "RAxML_bestTree.ms")); err != nil {
		t.Fatal("multi-search best tree not written")
	}
	// 3 searches over 2 ranks → 4 outcomes (ceil rule).
	if got := strings.Count(out.String(), "rank "); got < 4 {
		t.Errorf("expected >= 4 per-search lines, got %d:\n%s", got, out.String())
	}
}

func TestRaxmlBootstrapOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("full analysis skipped in -short mode")
	}
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)
	var out bytes.Buffer
	err := Raxml([]string{
		"-s", align, "-n", "bs", "-f", "b", "-N", "8", "-R", "2", "-w", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "RAxML_bootstrap.bs"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 8 {
		t.Errorf("%d bootstrap trees written, want 8", lines)
	}
	for _, name := range []string{"RAxML_MajorityRuleConsensusTree.bs", "RAxML_GreedyConsensusTree.bs"} {
		cons, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s not written: %v", name, err)
		}
		if !strings.HasSuffix(strings.TrimSpace(string(cons)), ";") {
			t.Fatalf("%s is not a newick", name)
		}
	}
}

func TestRaxmlEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("full analysis skipped in -short mode")
	}
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)
	// Build a user tree over the same taxa.
	names := make([]string, 8)
	for i := range names {
		names[i] = "taxon000" + string(rune('0'+i))
	}
	nw, err := tree.FormatNewick(tree.Caterpillar(names), nil)
	if err != nil {
		t.Fatal(err)
	}
	treePath := filepath.Join(dir, "user.nwk")
	if err := os.WriteFile(treePath, []byte(nw+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = Raxml([]string{
		"-s", align, "-n", "ev", "-f", "e", "-t", treePath, "-w", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	result, err := os.ReadFile(filepath.Join(dir, "RAxML_result.ev"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.ParseNewick(strings.TrimSpace(string(result)), names)
	if err != nil {
		t.Fatal(err)
	}
	// -f e must not change the topology.
	want, _ := tree.ParseNewick(nw, names)
	if d, _ := tree.RobinsonFoulds(got, want); d != 0 {
		t.Fatalf("-f e changed the topology (RF=%d)", d)
	}
	if !strings.Contains(out.String(), "Final log-likelihood") {
		t.Error("summary missing")
	}
}

func TestRaxmlSupportMapping(t *testing.T) {
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)
	names := make([]string, 8)
	for i := range names {
		names[i] = "taxon000" + string(rune('0'+i))
	}
	best := tree.Caterpillar(names)
	bestNW, _ := tree.FormatNewick(best, nil)
	bestPath := filepath.Join(dir, "best.nwk")
	if err := os.WriteFile(bestPath, []byte(bestNW+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Replicates: the same tree three times → 100% support everywhere.
	repsPath := filepath.Join(dir, "reps.nwk")
	if err := os.WriteFile(repsPath, []byte(bestNW+"\n"+bestNW+"\n"+bestNW+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := Raxml([]string{
		"-s", align, "-n", "sup", "-f", "s", "-t", bestPath, "-z", repsPath, "-w", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	annotated, err := os.ReadFile(filepath.Join(dir, "RAxML_bipartitions.sup"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(annotated), ")100:") {
		t.Fatalf("expected 100%% support labels:\n%s", annotated)
	}
	if !strings.Contains(out.String(), "mean support 100.0%") {
		t.Errorf("summary wrong: %s", out.String())
	}
}

func TestRaxmlEvaluateMissingTree(t *testing.T) {
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)
	var out bytes.Buffer
	if err := Raxml([]string{"-s", align, "-f", "e"}, &out); err == nil {
		t.Error("-f e without -t accepted")
	}
	if err := Raxml([]string{"-s", align, "-f", "s", "-t", align}, &out); err == nil {
		t.Error("-f s without -z accepted")
	}
}

func TestRaxmlErrors(t *testing.T) {
	var out bytes.Buffer
	if err := Raxml([]string{}, &out); err == nil {
		t.Error("missing -s accepted")
	}
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)
	if err := Raxml([]string{"-s", align, "-m", "JC"}, &out); err == nil {
		t.Error("unknown model accepted")
	}
	if err := Raxml([]string{"-s", align, "-f", "z"}, &out); err == nil {
		t.Error("unknown analysis accepted")
	}
	if err := Raxml([]string{"-s", filepath.Join(dir, "nope.phy")}, &out); err == nil {
		t.Error("missing file accepted")
	}
}

func TestMkdataCustom(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := Mkdata([]string{"-out", dir, "-taxa", "6", "-chars", "100", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "custom_6x100.phy")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := msa.ParsePHYLIP(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTaxa() != 6 || a.NumChars() != 100 {
		t.Fatalf("generated %dx%d, want 6x100", a.NumTaxa(), a.NumChars())
	}
}

func TestMkdataSingleSet(t *testing.T) {
	if testing.Short() {
		t.Skip("data generation skipped in -short mode")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := Mkdata([]string{"-out", dir, "-set", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files written, want 1", len(entries))
	}
	if !strings.Contains(out.String(), "paper: 348") {
		t.Errorf("pattern comparison missing: %s", out.String())
	}
}

func TestPaperbenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("artifact regeneration skipped in -short mode")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := Paperbench([]string{"-out", dir, "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table2", "fig1", "fig8", "table5", "table6", "INDEX"} {
		name := id + ".txt"
		if id == "INDEX" {
			name = "INDEX.txt"
		}
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s not written", name)
		}
	}
	// CSV companions exist.
	if _, err := os.Stat(filepath.Join(dir, "table5.csv")); err != nil {
		t.Error("table5.csv not written")
	}
}

func TestMkdataMultiGeneAndRaxmlPartitioned(t *testing.T) {
	if testing.Short() {
		t.Skip("full analysis skipped in -short mode")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := Mkdata([]string{
		"-out", dir, "-taxa", "8", "-chars", "120", "-genes", "3", "-seed", "11",
	}, &out); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "multigene_8x3x120")
	for _, suffix := range []string{".phy", ".part"} {
		if _, err := os.Stat(base + suffix); err != nil {
			t.Fatalf("mkdata did not write %s: %v", base+suffix, err)
		}
	}
	// The emitted partition file must be machine-parseable and cover
	// the alignment exactly.
	pf, err := os.Open(base + ".part")
	if err != nil {
		t.Fatal(err)
	}
	defs, err := msa.ParsePartitionFile(pf)
	pf.Close()
	if err != nil {
		t.Fatalf("emitted partition file unparseable: %v", err)
	}
	if len(defs) != 3 {
		t.Fatalf("partition file has %d genes, want 3", len(defs))
	}

	// End-to-end -q analysis: evaluate a quick multi-search on the
	// partitioned data with per-gene models.
	out.Reset()
	err = Raxml([]string{
		"-s", base + ".phy", "-q", base + ".part",
		"-n", "part1", "-f", "d", "-N", "2", "-T", "2", "-w", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Partitions (3") {
		t.Errorf("partition summary missing from output:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "RAxML_bestTree.part1")); err != nil {
		t.Fatalf("best tree not written: %v", err)
	}
}

func TestRaxmlPartitionFileErrors(t *testing.T) {
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)
	// A partition file that does not cover the alignment must fail.
	part := filepath.Join(dir, "bad.part")
	if err := os.WriteFile(part, []byte("DNA, g0 = 1-100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := Raxml([]string{"-s", align, "-q", part, "-n", "bad", "-w", dir}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Fatalf("gap-ridden partition file accepted: %v", err)
	}
}

// TestRaxmlProfiles: -cpuprofile/-memprofile must produce non-empty
// pprof files alongside a normal analysis (the perf-tooling contract of
// docs/profiling.md).
func TestRaxmlProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full analysis skipped in -short mode")
	}
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)
	names := make([]string, 8)
	for i := range names {
		names[i] = "taxon000" + string(rune('0'+i))
	}
	nw, err := tree.FormatNewick(tree.Caterpillar(names), nil)
	if err != nil {
		t.Fatal(err)
	}
	treePath := filepath.Join(dir, "user.nwk")
	if err := os.WriteFile(treePath, []byte(nw+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	err = Raxml([]string{
		"-s", align, "-n", "prof", "-f", "e", "-t", treePath, "-w", dir,
		"-cpuprofile", cpuPath, "-memprofile", memPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpuPath, memPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
