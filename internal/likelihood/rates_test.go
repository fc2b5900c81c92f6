package likelihood

import (
	"errors"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/tree"
)

// Every writer of a partition's rate treatment goes through
// partState.installRates, which is what lets the assembly kernels index
// their matrix blocks by pattern category behind one maxCat check. These
// tests visit the helper and each site that calls it: construction, the
// four switches of the per-site rate optimizer, and the wire model sync.

// checkRatesInstalled fails unless every partition's recorded top
// category is the maximum of its assignment and indexes its rates.
func checkRatesInstalled(t *testing.T, e *Engine, when string) {
	t.Helper()
	for i := range e.parts {
		ps := &e.parts[i]
		top := 0
		for _, c := range ps.rates.PatternCategory {
			top = max(top, c)
		}
		if ps.maxCat != top {
			t.Fatalf("%s: partition %d records top category %d, its assignment holds %d", when, i, ps.maxCat, top)
		}
		if ps.rates.IsCAT() && (ps.maxCat >= ps.rates.NumCats() || len(ps.rates.PatternCategory) != ps.hi-ps.lo) {
			t.Fatalf("%s: partition %d: top category %d of %d, %d assignments for %d patterns",
				when, i, ps.maxCat, ps.rates.NumCats(), len(ps.rates.PatternCategory), ps.hi-ps.lo)
		}
	}
}

func TestInstallRates(t *testing.T) {
	installed := gtr.RateCategories{Rates: []float64{1}, PatternCategory: []int{0, 0, 0, 0}}
	for _, tc := range []struct {
		name string
		rc   gtr.RateCategories
		top  int
		bad  bool
	}{
		{name: "uniform", rc: gtr.RateCategories{Rates: []float64{1}, PatternCategory: []int{0, 0, 0, 0}}},
		{name: "top at the end", rc: gtr.RateCategories{Rates: []float64{.5, 1, 2}, PatternCategory: []int{0, 1, 0, 2}}, top: 2},
		{name: "unused top rates", rc: gtr.RateCategories{Rates: []float64{.5, 1, 2, 4}, PatternCategory: []int{1, 0, 1, 1}}, top: 1},
		{name: "gamma", rc: gtr.RateCategories{Rates: []float64{.1, .5, 1, 2.4}, Probs: []float64{.25, .25, .25, .25}}},
		{name: "category == NumCats", rc: gtr.RateCategories{Rates: []float64{.5, 1}, PatternCategory: []int{0, 1, 2, 0}}, bad: true},
		{name: "negative category", rc: gtr.RateCategories{Rates: []float64{.5, 1}, PatternCategory: []int{0, -1, 1, 0}}, bad: true},
		{name: "no rates", rc: gtr.RateCategories{PatternCategory: []int{0, 0, 0, 0}}, bad: true},
		{name: "short assignment", rc: gtr.RateCategories{Rates: []float64{1}, PatternCategory: []int{0, 0, 0}}, bad: true},
		{name: "long assignment", rc: gtr.RateCategories{Rates: []float64{1}, PatternCategory: []int{0, 0, 0, 0, 0}}, bad: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			held := installed.Clone()
			ps := partState{name: "p", lo: 10, hi: 14, rates: held, maxCat: 0}
			err := ps.installRates(tc.rc)
			if tc.bad {
				if err == nil {
					t.Fatal("accepted")
				}
				if ps.rates != held || len(held.Rates) != 1 || ps.maxCat != 0 {
					t.Fatalf("a rejected treatment was installed: %+v, top %d", *ps.rates, ps.maxCat)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ps.rates != held {
				t.Fatal("the treatment's pointer identity moved")
			}
			if ps.maxCat != tc.top || len(held.Rates) != len(tc.rc.Rates) {
				t.Fatalf("installed %+v with top %d, want top %d", *held, ps.maxCat, tc.top)
			}
		})
	}
}

// TestInstallRatesAtConstruction: New and NewPartitioned refuse a CAT
// assignment naming a category its rates do not have — before this the
// first newview indexed past the matrix block.
func TestInstallRatesAtConstruction(t *testing.T) {
	r := rng.New(61)
	pat := randomPatterns(t, r, 6, 80)
	n := pat.NumPatterns()
	for name, bad := range map[string]int{"out of range": 2, "negative": -1} {
		rc := &gtr.RateCategories{Rates: []float64{0.5, 2}, PatternCategory: make([]int, n)}
		rc.PatternCategory[n/2] = bad
		if _, err := New(pat, gtr.Default(), rc, Config{}); err == nil {
			t.Errorf("New accepted an assignment with a category %s", name)
		}
		set := &gtr.PartitionSet{Models: []*gtr.Model{gtr.Default()}, Rates: []*gtr.RateCategories{rc}}
		if _, err := NewPartitioned(pat, set, Config{}); err == nil {
			t.Errorf("NewPartitioned accepted an assignment with a category %s", name)
		}
	}
	rc := &gtr.RateCategories{Rates: []float64{0.5, 2, 3}, PatternCategory: make([]int, n)}
	rc.PatternCategory[n-1] = 1
	e, err := New(pat, gtr.Default(), rc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkRatesInstalled(t, e, "after New")
}

// TestInstallRatesThroughPerSiteOptimizer runs the per-site rate
// optimizer — uniform candidates, the clustered treatment, the restore
// of the saved one and the final choice all go through installRates —
// on a two-partition engine under each kernel set, and checks the
// recorded top categories at the end and on every likelihood in between
// (an assembly wrapper panics when a recorded top does not index its
// matrix block).
func TestInstallRatesThroughPerSiteOptimizer(t *testing.T) {
	for _, mode := range []string{"scalar", "avx2"} {
		t.Run(mode, func(t *testing.T) {
			if err := SetKernelMode(mode); err != nil {
				t.Skip(err)
			}
			defer func() {
				if err := SetKernelMode("auto"); err != nil {
					t.Fatal(err)
				}
			}()
			r := rng.New(62)
			a := randomAlignment(t, r, 8, 260)
			e, pat := partitionedEngine(t, a, 2, 2, func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
				return gtr.Default(), contentCAT(pat, pr.Lo, pr.Hi, []float64{0.3, 1, 2.5})
			})
			if err := e.AttachTree(tree.Random(pat.Names, r)); err != nil {
				t.Fatal(err)
			}
			checkRatesInstalled(t, e, "after construction")
			held := []*gtr.RateCategories{e.PartitionRates(0), e.PartitionRates(1)}
			ll := e.OptimizePerSiteRates(6, 8)
			checkRatesInstalled(t, e, "after OptimizePerSiteRates")
			if e.PartitionRates(0) != held[0] || e.PartitionRates(1) != held[1] {
				t.Fatal("OptimizePerSiteRates replaced a treatment pointer")
			}
			if got := e.LogLikelihood(); got != ll {
				t.Fatalf("likelihood after the optimizer %.17g, it returned %.17g", got, ll)
			}
			e.OptimizeAllBranches(1, 0.01)
		})
	}
}

// TestInstallRatesFromWire: a model block naming a category outside the
// shipped rates — or a GAMMA block of the wrong width — is a desync
// (ErrWireDesync), installs nothing, and never panics; a sound block
// installs and moves the recorded top.
func TestInstallRatesFromWire(t *testing.T) {
	r := rng.New(63)
	pat := randomPatterns(t, r, 6, 90)
	n := pat.NumPatterns()
	geom := &WorkerGeom{StripeLo: 0, StripeHi: n, MasterParts: 1, PartMap: []int{0}, ClipOff: []int{0}}
	model := gtr.Default()
	block := func(assign []int, rates []float64) *WireModel {
		return &WireModel{
			Weights: append([]int(nil), pat.Weights...), IsCAT: true,
			Parts: []WireModelPart{{Rates: model.Rates, Freqs: model.Freqs, CatRates: rates, CatAssign: assign}},
		}
	}
	e, err := BuildWorkerEngine(&WorkerInit{Ranks: 2, Rank: 1, Threads: 1, Geom: *geom, Pat: pat, IsCAT: true, NCats: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := make([]int, n)
	good[3], good[n-1] = 2, 1
	if err := e.ApplyWireModel(block(good, []float64{0.4, 1, 3}), geom); err != nil {
		t.Fatal(err)
	}
	checkRatesInstalled(t, e, "after a sound model block")
	if e.parts[0].maxCat != 2 {
		t.Fatalf("recorded top category %d, want 2", e.parts[0].maxCat)
	}
	for name, c := range map[string]int{"out of range": 3, "negative": -1} {
		bad := append([]int(nil), good...)
		bad[n/2] = c
		err := e.ApplyWireModel(block(bad, []float64{0.4, 1, 3}), geom)
		if !errors.Is(err, ErrWireDesync) {
			t.Fatalf("%s category on the wire: %v, want ErrWireDesync", name, err)
		}
		checkRatesInstalled(t, e, "after a rejected model block")
		if e.parts[0].rates.PatternCategory[n/2] != good[n/2] {
			t.Fatalf("%s category on the wire was installed", name)
		}
	}

	g, err := BuildWorkerEngine(&WorkerInit{Ranks: 2, Rank: 1, Threads: 1, Geom: *geom, Pat: pat, NCats: 4})
	if err != nil {
		t.Fatal(err)
	}
	narrow := &WireModel{
		Weights: pat.Weights,
		Parts:   []WireModelPart{{Rates: model.Rates, Freqs: model.Freqs, GammaRates: []float64{0.5, 1.5}, GammaProbs: []float64{0.5, 0.5}}},
	}
	if err := g.ApplyWireModel(narrow, geom); !errors.Is(err, ErrWireDesync) {
		t.Fatalf("2-category GAMMA block for a 4-category engine: %v, want ErrWireDesync", err)
	}
}
