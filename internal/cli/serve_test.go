package cli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDeriveRunName pins the deterministic default -n: same content and
// seeds → same name, any seed/alignment change → a different one.
func TestDeriveRunName(t *testing.T) {
	align := []byte("10 400\nfake alignment bytes")
	name := deriveRunName(align, nil, "GTRCAT", 1, 100, 5, false, 12345, 12345)
	if name != deriveRunName(align, nil, "GTRCAT", 1, 100, 5, false, 12345, 12345) {
		t.Error("derived run name not deterministic")
	}
	if len(name) != 13 || name[0] != 'r' {
		t.Errorf("derived run name shape %q", name)
	}
	for label, other := range map[string]string{
		"alignment": deriveRunName([]byte("different"), nil, "GTRCAT", 1, 100, 5, false, 12345, 12345),
		"partition": deriveRunName(align, []byte("DNA, gene0 = 1-200"), "GTRCAT", 1, 100, 5, false, 12345, 12345),
		"seed -p":   deriveRunName(align, nil, "GTRCAT", 1, 100, 5, false, 999, 12345),
		"seed -x":   deriveRunName(align, nil, "GTRCAT", 1, 100, 5, false, 12345, 999),
		"model":     deriveRunName(align, nil, "GTRGAMMA", 1, 100, 5, false, 12345, 12345),
	} {
		if other == name {
			t.Errorf("changing %s did not change the derived run name", label)
		}
	}
}

// TestDerivedRunNamesSeparateAnalyses pins that, without -n, runs of a
// different analysis type, rank count or grain over one alignment derive
// different names, so none overwrites another's files; a -grid run's
// name stays the server's run ID (TestRaxmlGridDerivedRunName).
func TestDerivedRunNamesSeparateAnalyses(t *testing.T) {
	base := deriveRunName([]byte("8 120\nfake alignment bytes"), nil, "GTRCAT", 1, 100, 5, false, 12345, 12345)
	seen := map[string]string{base: "-grid"}
	for _, shape := range []struct {
		analysis string
		ranks    int
		fine     bool
	}{{"a", 1, false}, {"a", 2, false}, {"d", 1, false}, {"d", 2, false}, {"d", 2, true}, {"b", 3, false}} {
		label := fmt.Sprintf("-f %s -R %d -fine=%v", shape.analysis, shape.ranks, shape.fine)
		name := offGridRunName(base, shape.analysis, shape.ranks, shape.fine)
		if name != offGridRunName(base, shape.analysis, shape.ranks, shape.fine) {
			t.Errorf("%s: derived run name not deterministic", label)
		}
		if len(name) != len(base) || name[0] != 'r' {
			t.Errorf("%s: derived run name shape %q", label, name)
		}
		if other, ok := seen[name]; ok {
			t.Errorf("%s derives %s, the name of %s", label, name, other)
		}
		seen[name] = label
	}

	// End to end: two bootstrap-only runs that differ only in -R.
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)
	data, err := os.ReadFile(align)
	if err != nil {
		t.Fatal(err)
	}
	gridName := deriveRunName(data, nil, "GTRCAT", 1, 2, 5, false, 12345, 12345)
	for _, ranks := range []int{1, 2} {
		var out bytes.Buffer
		if err := Raxml([]string{"-s", align, "-f", "b", "-N", "2", "-R", fmt.Sprint(ranks), "-w", dir}, &out); err != nil {
			t.Fatalf("-R %d: %v\n%s", ranks, err, out.String())
		}
		name := offGridRunName(gridName, "b", ranks, false)
		if !strings.Contains(out.String(), "Run name (derived): "+name) {
			t.Errorf("-R %d: stdout missing derived run name %s:\n%s", ranks, name, out.String())
		}
		if _, err := os.Stat(filepath.Join(dir, "RAxML_bootstrap."+name)); err != nil {
			t.Errorf("-R %d: %v", ranks, err)
		}
	}
}

// TestRaxmlGridDerivedRunName runs a small -grid analysis WITHOUT -n and
// checks the outputs (including the grid trace) land on the derived,
// re-run-stable name.
func TestRaxmlGridDerivedRunName(t *testing.T) {
	if testing.Short() {
		t.Skip("grid analysis skipped in -short mode")
	}
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)
	data, err := os.ReadFile(align)
	if err != nil {
		t.Fatal(err)
	}
	name := deriveRunName(data, nil, "GTRCAT", 1, 4, 4, false, 42, 99)

	var out bytes.Buffer
	err = Raxml([]string{
		"-s", align, "-N", "4", "-grid-batch", "4", "-grid", "0",
		"-w", dir, "-p", "42", "-x", "99",
	}, &out)
	if err != nil {
		t.Fatalf("grid run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "Run name (derived): "+name) {
		t.Errorf("stdout missing derived run name %s:\n%s", name, out.String())
	}
	for _, f := range []string{"RAxML_bestTree." + name, "RAxML_gridTrace." + name + ".jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("%s not written: %v", f, err)
		}
	}
}
