package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json and the runner's own tables (what -list prints) must
// name the same workloads and metrics, in the same order, with the same
// units and bounds.
func TestBenchmarkJSONMatchesList(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, the runner %v", names, want)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the runner %v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs between BENCHMARK.json and the runner")
	}
}

// The limits the driver enforces before it makes a single run.
func TestBenchmarkJSONWithinContract(t *testing.T) {
	f := loadBenchmarkFile(t)
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("name %q is outside the allowed alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range f.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range f.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), f.EndToEnd...), f.PerLayer...) {
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the allowed alphabet or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range f.PerLayer {
		check(m.Name)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	// 4 + 22 x workloads runs must fit the driver's 3420 s with their
	// set-up and two builds. A run takes about run_seconds + 1 s (the
	// loop stops half a rep early; set-up, build check and the untimed
	// checks add ~1.5 s); 2 s per run and 200 s for two cold builds is
	// the allowance.
	if total := (4 + 22*len(f.Workloads)) * (f.RunSeconds + 2); total > 3420-200 {
		t.Errorf("%d s of runs leave no room for the builds within 3420 s", total)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", f.Paths)
	}
}

// The submission script is a pure function of (seed, pass), a third
// each of cold, warm and identical resubmits, and no pass repeats
// another's work.
func TestPassScriptIsPure(t *testing.T) {
	a, b := passScript(7, 3), passScript(7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("passScript(7, 3) differs between calls")
	}
	if reflect.DeepEqual(a, passScript(8, 3)) || reflect.DeepEqual(a, passScript(7, 4)) {
		t.Fatal("passScript ignores its seed or its pass index")
	}
	if len(a) != len(tenants) {
		t.Fatalf("%d tenant scripts, want %d", len(a), len(tenants))
	}
	variants := map[int64]bool{}
	for _, subs := range a {
		kinds := map[string]int{}
		for i, s := range subs {
			kinds[s.Kind]++
			switch s.Kind {
			case "cold":
				if variants[s.Variant] {
					t.Errorf("cold submission %d reuses an alignment variant", i)
				}
				variants[s.Variant] = true
			case "warm":
				if p := subs[i-1]; p.Variant != s.Variant || p.P != s.P || p.X == s.X {
					t.Errorf("warm submission %d must keep the alignment and -p of the cold one and change -x", i)
				}
			case "dup":
				if p := subs[i-1]; p.Variant != s.Variant || p.P != s.P || p.X != s.X {
					t.Errorf("dup submission %d is not identical to its predecessor", i)
				}
			}
		}
		if kinds["cold"] != kinds["warm"] || kinds["warm"] != kinds["dup"] || kinds["cold"] == 0 {
			t.Errorf("kinds %v, want equal thirds", kinds)
		}
	}
}

// Seeds reach the program only through derive; its values are part of
// what reference.json pins.
func TestDeriveIsStable(t *testing.T) {
	if a, b := derive(1, "serial_wide/p", 0), derive(1, "serial_wide/p", 0); a != b || a < 1 {
		t.Fatalf("derive is not a positive pure function: %d, %d", a, b)
	}
	if derive(1, "serial_wide/p", 0) == derive(2, "serial_wide/p", 0) || derive(1, "serial_wide/p", 0) == derive(1, "serial_wide/p", 1) {
		t.Fatal("derive ignores its seed or its index")
	}
	if !reflect.DeepEqual(instancesFor("grid_tcp", 5), instancesFor("grid_tcp", 5)) || len(instancesFor("grid_tcp", 5)) != instancesPerRun {
		t.Fatal("instancesFor is not a pure function of (workload, seed)")
	}
}

// A permuted alignment is the same problem: the same columns, each as
// often, over the same taxa — so pattern count and likelihoods do not
// depend on the run seed.
func TestPermutedKeepsTheProblem(t *testing.T) {
	a, err := parsePhylip([]byte("3 6\nt0 ACGTAC\nt1 AAGTCC\nt2 ACGGAC\n"))
	if err != nil {
		t.Fatal(err)
	}
	columns := func(a *alignment) []string {
		row := map[string]int{}
		for i, n := range a.Names {
			row[n] = i
		}
		var cols []string
		for j := range a.Seqs[0] {
			cols = append(cols, string([]byte{a.Seqs[row["t0"]][j], a.Seqs[row["t1"]][j], a.Seqs[row["t2"]][j]}))
		}
		sort.Strings(cols)
		return cols
	}
	p := a.permuted(42)
	if !reflect.DeepEqual(columns(a), columns(p)) {
		t.Errorf("permutation changed the columns: %v vs %v", columns(a), columns(p))
	}
	if reflect.DeepEqual(a.bytes(), p.bytes()) {
		t.Error("permutation left the file unchanged")
	}
	if !reflect.DeepEqual(p.bytes(), a.permuted(42).bytes()) {
		t.Error("permutation is not a pure function of its seed")
	}
	if back, err := parsePhylip(p.bytes()); err != nil || !reflect.DeepEqual(back, p) {
		t.Errorf("bytes/parsePhylip do not round-trip: %v", err)
	}
}

// The stability rule: the end-to-end runner must build and run while
// the repository's internals are rebuilt, so nothing under
// raxml/internal (nor the raxml facade) may reach its import graph.
func TestRunnerImportsNothingFromTheRepository(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "raxml" || strings.HasPrefix(pkg, "raxml/internal/") || strings.HasPrefix(pkg, "raxml/cmd/") {
			t.Errorf("the runner depends on %s", pkg)
		}
	}
}

func TestTopologyHashIgnoresBranchLengths(t *testing.T) {
	a := []byte("((taxon0:0.1,taxon1:0.25):0.01,taxon2:1e-08,taxon3:0.3);\n")
	b := []byte("((taxon0:0.1000001,taxon1:0.25):0.01,taxon2:1.2e-08,taxon3:0.3);\n")
	if sha(branchLenRe.ReplaceAll(a, nil)) != sha(branchLenRe.ReplaceAll(b, nil)) {
		t.Error("trees differing only in branch lengths hash differently")
	}
	c := []byte("((taxon0:0.1,taxon2:0.25):0.01,taxon1:1e-08,taxon3:0.3);\n")
	if sha(branchLenRe.ReplaceAll(a, nil)) == sha(branchLenRe.ReplaceAll(c, nil)) {
		t.Error("different topologies hash alike")
	}
	if err := checkTrees(a, 4, 1); err != nil {
		t.Error(err)
	}
	if checkTrees(a, 5, 1) == nil || checkTrees([]byte("((taxon0,taxon1),taxon2,taxon3)\n"), 4, 1) == nil {
		t.Error("checkTrees accepts a tree with a missing taxon or without a terminator")
	}
}
