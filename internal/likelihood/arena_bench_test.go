package likelihood

import (
	"runtime"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// The paper's smallest multi-gene workload class: ~1288 alignment
// patterns. Random DNA makes essentially every column a distinct
// pattern, so 1288 characters compress to 1288 patterns.
func bench1288Patterns(b *testing.B) *msa.Patterns {
	b.Helper()
	r := rng.New(1288)
	letters := []byte("ACGT")
	a := &msa.Alignment{}
	nm := names(50)
	for i := 0; i < 50; i++ {
		a.Names = append(a.Names, nm[i])
		row := make([]msa.State, 1288)
		for j := range row {
			row[j] = msa.EncodeChar(letters[r.Intn(4)])
		}
		a.Seqs = append(a.Seqs, row)
	}
	p, err := msa.Compress(a)
	if err != nil {
		b.Fatal(err)
	}
	if p.NumPatterns() != 1288 {
		b.Fatalf("workload has %d patterns, want 1288", p.NumPatterns())
	}
	return p
}

// benchTreatment is one rate treatment of the 1288-pattern workload.
type benchTreatment struct {
	name  string
	rates func() *gtr.RateCategories
}

// benchTreatments returns the two treatments the kernel benchmarks run
// under: 25 clustered CAT categories, and GAMMA with 4.
func benchTreatments(b *testing.B, pat *msa.Patterns) []benchTreatment {
	return []benchTreatment{
		{"CAT", func() *gtr.RateCategories {
			r := rng.New(5)
			perSite := make([]float64, pat.NumPatterns())
			for i := range perSite {
				perSite[i] = 0.25 + 2*r.Float64()
			}
			return clusterCAT(perSite, 25)
		}},
		{"GAMMA", func() *gtr.RateCategories {
			rc, err := gtr.NewGamma(0.8, 4)
			if err != nil {
				b.Fatal(err)
			}
			return rc
		}},
	}
}

// BenchmarkNewviewArena measures the newview hot path — a full-tree
// descriptor walk refreshing every directed CLV on the evaluation path —
// on the 1288-pattern workload, under both rate treatments. This is the
// benchmark the flat-CLV arena refactor is gated on (ISSUE 2 acceptance:
// >= 1.3x over the recorded per-slice baseline) and the one benchdiff
// watches most closely for regressions.
func BenchmarkNewviewArena(b *testing.B) {
	pat := bench1288Patterns(b)
	tr := tree.Random(pat.Names, rng.New(3))
	for _, tc := range benchTreatments(b, pat) {
		for _, workers := range []int{1, 4} {
			b.Run(tc.name+"/workers="+string(rune('0'+workers)), func(b *testing.B) {
				if workers > runtime.NumCPU() {
					b.Skipf("%d workers oversubscribe %d CPUs: timings would measure the scheduler", workers, runtime.NumCPU())
				}
				pool := threads.NewPool(workers, pat.NumPatterns())
				defer pool.Close()
				e, err := New(pat, gtr.Default(), tc.rates(), Config{Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				if err := e.AttachTree(tr); err != nil {
					b.Fatal(err)
				}
				a := 0
				nb := tr.Nodes[0].Neighbors[0]
				slotA := e.slotOf(a, nb)
				slotB := e.slotOf(nb, a)
				_ = e.LogLikelihood() // warm allocation paths
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.InvalidateAll()
					e.refreshViews([2]int{a, slotA}, [2]int{nb, slotB})
				}
			})
		}
	}
}

// BenchmarkRelikelihood is a full relikelihood — invalidate everything,
// walk the whole descriptor, evaluate — on the 1288-pattern workload
// under each rate treatment and each kernel set, so the in-process
// avx2/scalar ratio exists for CAT next to GAMMA's (the scalar figures
// are the reference loops of the same kernel-table entries). The avx2
// variants skip where the set is unavailable.
func BenchmarkRelikelihood(b *testing.B) {
	pat := bench1288Patterns(b)
	tr := tree.Random(pat.Names, rng.New(3))
	for _, tc := range benchTreatments(b, pat) {
		for _, mode := range []string{"scalar", "avx2"} {
			b.Run(tc.name+"/"+mode, func(b *testing.B) {
				if err := SetKernelMode(mode); err != nil {
					b.Skip(err)
				}
				defer func() {
					if err := SetKernelMode("auto"); err != nil {
						b.Fatal(err)
					}
				}()
				e, err := New(pat, gtr.Default(), tc.rates(), Config{})
				if err != nil {
					b.Fatal(err)
				}
				if err := e.AttachTree(tr); err != nil {
					b.Fatal(err)
				}
				_ = e.LogLikelihood() // warm allocation paths
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.InvalidateAll()
					sinkLL = e.LogLikelihood()
				}
			})
		}
	}
}

// bench1288Alignment is the uncompressed form of the 1288-pattern
// workload, for partitioned compression.
func bench1288Alignment(b *testing.B) *msa.Alignment {
	b.Helper()
	r := rng.New(1288)
	letters := []byte("ACGT")
	a := &msa.Alignment{}
	nm := names(50)
	for i := 0; i < 50; i++ {
		a.Names = append(a.Names, nm[i])
		row := make([]msa.State, 1288)
		for j := range row {
			row[j] = msa.EncodeChar(letters[r.Intn(4)])
		}
		a.Seqs = append(a.Seqs, row)
	}
	return a
}

// BenchmarkNewviewPartitioned measures the partitioned newview hot path
// — the same full-tree descriptor walk as BenchmarkNewviewArena, over
// the same 1288 patterns, but split into 4 partitions with independent
// GTRCAT model instances. "balanced" gives every gene an equal share;
// "skewed" concentrates most of the axis in one gene with three narrow
// ones — the imbalance shape that defeats naive per-partition striping
// and that the weighted, partition-aligned stripes must absorb. Gated
// by benchdiff: the partition machinery (chunked kernels, per-partition
// matrix blocks, segmented tiles) must stay within noise of the
// single-partition walk.
func BenchmarkNewviewPartitioned(b *testing.B) {
	a := bench1288Alignment(b)
	shapes := []struct {
		name string
		cuts []int // column split points
	}{
		{"balanced", []int{322, 644, 966}},
		{"skewed", []int{40, 80, 120}}, // 3 narrow genes + one 1168-column gene
	}
	for _, shape := range shapes {
		var defs []msa.PartitionDef
		lo := 0
		for gi, cut := range append(shape.cuts, 1288) {
			defs = append(defs, msa.PartitionDef{
				ModelName: "DNA",
				Name:      "gene" + string(rune('0'+gi)),
				Ranges:    []msa.SiteRange{{Lo: lo, Hi: cut, Stride: 1}},
			})
			lo = cut
		}
		pat, err := msa.CompressPartitioned(a, defs)
		if err != nil {
			b.Fatal(err)
		}
		tr := tree.Random(pat.Names, rng.New(3))
		for _, workers := range []int{1, 4} {
			b.Run(shape.name+"/workers="+string(rune('0'+workers)), func(b *testing.B) {
				if workers > runtime.NumCPU() {
					b.Skipf("%d workers oversubscribe %d CPUs: timings would measure the scheduler", workers, runtime.NumCPU())
				}
				pool := threads.NewPool(workers, pat.NumPatterns())
				pool.AlignRangesAt(StripeQuantum, pat.PartStarts())
				defer pool.Close()
				set := &gtr.PartitionSet{}
				r := rng.New(5)
				for _, pr := range pat.PartRanges() {
					perSite := make([]float64, pr.Len())
					for i := range perSite {
						perSite[i] = 0.25 + 2*r.Float64()
					}
					set.Models = append(set.Models, gtr.Default())
					set.Rates = append(set.Rates, clusterCAT(perSite, 25))
				}
				e, err := NewPartitioned(pat, set, Config{Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				if err := e.AttachTree(tr); err != nil {
					b.Fatal(err)
				}
				a := 0
				nb := tr.Nodes[0].Neighbors[0]
				slotA := e.slotOf(a, nb)
				slotB := e.slotOf(nb, a)
				_ = e.LogLikelihood() // warm allocation paths
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.InvalidateAll()
					e.refreshViews([2]int{a, slotA}, [2]int{nb, slotB})
				}
			})
		}
	}
}

// BenchmarkEvaluateArena measures the evaluate (virtual-root reduction)
// kernel alone over fresh CLVs — the other per-pattern loop the arena
// layout streams.
func BenchmarkEvaluateArena(b *testing.B) {
	pat := bench1288Patterns(b)
	tr := tree.Random(pat.Names, rng.New(3))
	pool := threads.NewPool(1, pat.NumPatterns())
	defer pool.Close()
	rc, err := gtr.NewGamma(0.8, 4)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(pat, gtr.Default(), rc, Config{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.AttachTree(tr); err != nil {
		b.Fatal(err)
	}
	_ = e.LogLikelihood() // CLVs fresh from here on
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.LogLikelihood()
	}
}
