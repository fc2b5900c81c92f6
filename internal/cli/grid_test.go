package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRaxmlGrid pins the -grid CLI path: the same analysis run
// master-local (-grid 0, the serial reference) and over a 2-worker chan
// fleet must produce identical consensus and best-tree files, -f s on the
// reference's outputs must reproduce its annotated tree, and every run
// must leave a JSONL event trace behind.
func TestRaxmlGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid analysis skipped in -short mode")
	}
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)

	run := func(name string, workers string) map[string]string {
		var out bytes.Buffer
		err := Raxml([]string{
			"-s", align, "-n", name, "-N", "8", "-starts", "2", "-grid-batch", "4",
			"-grid", workers, "-w", dir, "-p", "42", "-x", "99",
		}, &out)
		if err != nil {
			t.Fatalf("grid run %s: %v\n%s", name, err, out.String())
		}
		files := map[string]string{}
		for _, f := range []string{"RAxML_bestTree", "RAxML_bipartitions", "RAxML_bootstrap", "RAxML_GreedyConsensusTree"} {
			data, err := os.ReadFile(filepath.Join(dir, f+"."+name))
			if err != nil {
				t.Fatalf("%s not written: %v", f, err)
			}
			files[f] = string(data)
		}
		return files
	}

	ref := run("gref", "0")
	// -f s draws support from the reference run's own best tree and
	// replicates: it must reproduce the grid's annotation byte for byte.
	var out bytes.Buffer
	if err := Raxml([]string{
		"-s", align, "-n", "gsup", "-f", "s", "-w", dir,
		"-t", filepath.Join(dir, "RAxML_bestTree.gref"), "-z", filepath.Join(dir, "RAxML_bootstrap.gref"),
	}, &out); err != nil {
		t.Fatalf("-f s: %v\n%s", err, out.String())
	}
	if sup, err := os.ReadFile(filepath.Join(dir, "RAxML_bipartitions.gsup")); err != nil || string(sup) != ref["RAxML_bipartitions"] {
		t.Errorf("-f s annotation differs from the grid's (%v):\n got %s\nwant %s", err, sup, ref["RAxML_bipartitions"])
	}
	got := run("gfleet", "2")
	for f, want := range ref {
		if got[f] != want {
			t.Errorf("%s differs between master-local and fleet runs:\n got %s\nwant %s", f, got[f], want)
		}
	}

	trace, err := os.ReadFile(filepath.Join(dir, "RAxML_gridTrace.gfleet.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []string{`"ev":"admit"`, `"ev":"lease"`, `"ev":"checkpoint"`, `"ev":"job-done"`} {
		if !strings.Contains(string(trace), ev) {
			t.Errorf("trace missing %s", ev)
		}
	}
}
