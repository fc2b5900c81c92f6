package threads_test

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/parsimony"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// indepAlignment is random DNA: essentially every column a distinct
// pattern, so every range of a 4-worker pool has real work.
func indepAlignment(taxa, chars int) *msa.Alignment {
	r := rng.New(2020)
	a := &msa.Alignment{}
	for i := 0; i < taxa; i++ {
		a.Names = append(a.Names, fmt.Sprintf("t%02d", i))
		row := make([]msa.State, chars)
		for j := range row {
			row[j] = msa.EncodeChar("ACGT"[r.Intn(4)])
		}
		a.Seqs = append(a.Seqs, row)
	}
	return a
}

// indepCAT assigns patterns [lo, hi) to categories by position.
func indepCAT(lo, hi int, rates []float64) *gtr.RateCategories {
	assign := make([]int, hi-lo)
	for k := range assign {
		assign[k] = (lo + 3*k) % len(rates)
	}
	return &gtr.RateCategories{Rates: append([]float64(nil), rates...), PatternCategory: assign}
}

// indepProgram runs the kernels whose reductions cross the pool — a full
// relikelihood, site likelihoods, a Newton branch optimization, a
// 40-candidate insertion scan and a Fitch score — and returns every
// number they produced, as bits.
func indepProgram(t *testing.T, e *likelihood.Engine, pat *msa.Patterns) []uint64 {
	t.Helper()
	var out []uint64
	put := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	tr := tree.Random(pat.Names, rng.New(77))
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	put(e.LogLikelihood())
	put(e.SiteLogLikelihoods(nil)...)
	edge := tr.Edges()[5]
	put(e.OptimizeBranch(edge.A, edge.B), e.LogLikelihood())
	put(float64(parsimony.New(pat, e.ThreadPool()).Score(tr)))

	for _, c := range tr.Edges() {
		for _, dir := range [][2]int{{c.A, c.B}, {c.B, c.A}} {
			if tr.Nodes[dir[1]].IsTip() {
				continue
			}
			p, err := tr.DanglingPrune(dir[0], dir[1])
			if err != nil {
				continue
			}
			cands := tr.RegraftCandidates(p, 64)
			if len(cands) < 40 {
				tr.PlugBack(p)
				continue
			}
			e.InvalidateEdge(p.OrigA, p.OrigB)
			e.InvalidateNode(p.Attach)
			put(e.EvaluateInsertions(dir[0], dir[1], cands[:40], nil)...)
			tr.PlugBack(p)
			e.InvalidateNode(p.Attach)
			put(e.LogLikelihood())
			return out
		}
	}
	t.Fatal("no prune with 40 regraft candidates")
	return nil
}

// TestRangeExecutorIndependence forces every assignment of the helper
// ranges to the master or to their helpers — 2^(W−1) per pool width —
// and requires every result bit of the un-hooked pool: reductions fold
// slot w whoever filled it, and a runner's scratch is indexed by range,
// so which goroutine took a range can never show.
func TestRangeExecutorIndependence(t *testing.T) {
	a := indepAlignment(26, 420)
	catRates := []float64{0.3, 0.7, 1.0, 1.6, 2.4}
	treatments := []struct {
		name  string
		build func(t *testing.T, workers int) (*likelihood.Engine, *threads.Pool, *msa.Patterns)
	}{
		{"CAT", func(t *testing.T, workers int) (*likelihood.Engine, *threads.Pool, *msa.Patterns) {
			pat, err := msa.Compress(a)
			if err != nil {
				t.Fatal(err)
			}
			pool := threads.NewPoolWeighted(workers, pat.Weights)
			e, err := likelihood.New(pat, gtr.Default(), indepCAT(0, pat.NumPatterns(), catRates), likelihood.Config{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			return e, pool, pat
		}},
		{"GAMMA", func(t *testing.T, workers int) (*likelihood.Engine, *threads.Pool, *msa.Patterns) {
			pat, err := msa.Compress(a)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := gtr.NewGamma(0.7, 4)
			if err != nil {
				t.Fatal(err)
			}
			pool := threads.NewPool(workers, pat.NumPatterns())
			e, err := likelihood.New(pat, gtr.Default(), rc, likelihood.Config{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			return e, pool, pat
		}},
		{"CAT/3-partition", func(t *testing.T, workers int) (*likelihood.Engine, *threads.Pool, *msa.Patterns) {
			pat, err := msa.CompressPartitioned(a, msa.ContiguousPartitions(a.NumChars(), 3))
			if err != nil {
				t.Fatal(err)
			}
			set := &gtr.PartitionSet{}
			for i, pr := range pat.PartRanges() {
				set.Models = append(set.Models, gtr.Default())
				set.Rates = append(set.Rates, indepCAT(0, pr.Len(), catRates[:2+i]))
			}
			pool := threads.NewPoolPartitioned(workers, pat.Weights, pat.PartStarts(), 16)
			e, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			return e, pool, pat
		}},
	}
	for _, tc := range treatments {
		for workers := 2; workers <= 4; workers++ {
			t.Run(fmt.Sprintf("%s/W=%d", tc.name, workers), func(t *testing.T) {
				e, pool, pat := tc.build(t, workers)
				want := indepProgram(t, e, pat)
				pool.Close()
				if pool.Workers() != workers {
					t.Fatalf("pool has %d workers, want %d", pool.Workers(), workers)
				}
				for mask := uint64(0); mask < 1<<uint(workers-1); mask++ {
					e, pool, pat := tc.build(t, workers)
					pool.ForceAssignment(mask << 1) // bit w of the mask is range w; range 0 is the master's
					got := indepProgram(t, e, pat)
					c := pool.Counters()
					pool.Close()
					if len(got) != len(want) {
						t.Fatalf("mask %b: %d results, want %d", mask, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("mask %b: result %d is %v, un-hooked pool %v", mask, i,
								math.Float64frombits(got[i]), math.Float64frombits(want[i]))
						}
					}
					// Every job was published and the master ran exactly the
					// ranges the mask names.
					if c.Inline != 0 || c.Published != pool.Dispatches() {
						t.Fatalf("mask %b: counters %+v over %d dispatches, want all published", mask, c, pool.Dispatches())
					}
					if n := int64(bits.OnesCount64(mask)); c.Taken < n*c.Published || (n == 0 && c.Taken != 0) {
						t.Fatalf("mask %b: the master took %d ranges over %d published jobs", mask, c.Taken, c.Published)
					}
				}
			})
		}
	}
}
