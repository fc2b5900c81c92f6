package cli

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"raxml/internal/tree"
)

// TestFineOutputDigests pins the bytes -fine writes over the in-proc
// transport: RAxML_bestTree of -f d -N 2 and RAxML_result of -f e, at
// R ∈ {1,2,3} × T ∈ {1,2} under both models, plus a 2-gene -q run. The
// digests were recorded while -fine still had drivers of its own; how
// its ranks are started and which driver runs on them must not move a
// bit. A 1-rank -fine run must also write exactly what the coarse -R 1
// run does.
func TestFineOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("about 40 small analyses")
	}
	dir := t.TempDir()
	var mk bytes.Buffer
	for _, args := range [][]string{
		{"-taxa", "20", "-chars", "300", "-seed", "3"},
		{"-taxa", "12", "-chars", "200", "-genes", "2", "-seed", "3"},
	} {
		if err := Mkdata(append([]string{"-out", dir}, args...), &mk); err != nil {
			t.Fatal(err)
		}
	}
	align := filepath.Join(dir, "custom_20x300.phy")
	genes := filepath.Join(dir, "multigene_12x2x200")
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("taxon%04d", i)
	}
	userTree := writeTree(t, dir, "user.nwk", tree.Balanced(names))
	geneTree := writeTree(t, dir, "genes.nwk", tree.Caterpillar(names[:12]))

	// One digest per model and analysis: every R×T shape of these runs
	// writes the same bytes.
	want := map[string]string{
		"GTRCAT.d":   "20993e0ee5207ee4",
		"GTRCAT.e":   "66e4f2d81a5fdbc1",
		"GTRGAMMA.d": "928d07b9fd31a78f",
		"GTRGAMMA.e": "4f6ffde5e17fba7d",
		"genes.d":    "acabd5e3414095f6",
		"genes.e":    "7215b8562f77f73f",
	}

	// run writes one analysis under -n name and returns the bytes of the
	// output file it is judged by.
	run := func(name, file string, args ...string) []byte {
		t.Helper()
		var out bytes.Buffer
		if err := Raxml(append([]string{"-n", name, "-w", dir}, args...), &out); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out.String())
		}
		b, err := os.ReadFile(filepath.Join(dir, file+"."+name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	check := func(name, key string, b []byte) {
		t.Helper()
		if got := fmt.Sprintf("%x", sha256.Sum256(b))[:16]; got != want[key] {
			t.Errorf("%s: digest %s, recorded %s", name, got, want[key])
		}
	}
	analyses := []struct {
		name, file string
		args       []string
	}{
		{"d", "RAxML_bestTree", []string{"-f", "d", "-N", "2", "-p", "7"}},
		{"e", "RAxML_result", []string{"-f", "e", "-t", userTree}},
	}
	for _, model := range []string{"GTRCAT", "GTRGAMMA"} {
		for _, an := range analyses {
			for _, threads := range []int{1, 2} {
				shape := []string{"-s", align, "-m", model, "-T", fmt.Sprint(threads)}
				for _, ranks := range []int{1, 2, 3} {
					name := fmt.Sprintf("%s.%s.R%d.T%d", model, an.name, ranks, threads)
					got := run(name, an.file, append(append(shape, an.args...), "-fine", "-R", fmt.Sprint(ranks))...)
					check(name, model+"."+an.name, got)
					if ranks == 1 {
						if coarse := run("coarse."+name, an.file, append(shape, an.args...)...); !bytes.Equal(got, coarse) {
							t.Errorf("%s: -fine -R 1 wrote\n%s\nthe coarse -R 1 run wrote\n%s", name, got, coarse)
						}
					}
				}
			}
		}
	}
	q := []string{"-s", genes + ".phy", "-q", genes + ".part", "-fine", "-R", "3", "-T", "2"}
	check("genes.d", "genes.d", run("genes.d", "RAxML_bestTree", append(q, "-f", "d", "-N", "2", "-p", "7")...))
	check("genes.e", "genes.e", run("genes.e", "RAxML_result", append(q, "-f", "e", "-t", geneTree)...))
}

func writeTree(t *testing.T, dir, name string, tr *tree.Tree) string {
	t.Helper()
	nw, err := tree.FormatNewick(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(nw+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
