package likelihood

import (
	"fmt"
	"testing"
	"unsafe"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// tapPool runs every job on its own crew and also ships it, as a
// distributed dispatcher would, to a worker engine over one stripe of the
// pattern axis: the worker sees the frames, model blocks and tile resets
// of a real lease. Its partials are dropped; the master computes the
// whole axis itself.
type tapPool struct {
	*threads.Pool
	master, worker *Engine
	model, topo    uint64
	job            WireJob
	err            error
}

func (p *tapPool) Post(r threads.JobRunner, code threads.JobCode) {
	model, topo := p.master.WireEpochs()
	frame := p.master.EncodeWireJob(code, model != p.model, topo != p.topo)
	p.model, p.topo = model, topo
	err := DecodeWireJobInto(&p.job, frame)
	if err == nil {
		_, err = p.worker.ExecWireJob(&p.job)
	}
	if err != nil && p.err == nil {
		p.err = err
	}
	p.Pool.Post(r, code)
}

// sliceData is the address of s's backing array.
func sliceData[T any](s []T) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(s)) }

// backingArrays names the backing array of the arenas, of the
// directed-edge bookkeeping and of every buffer New sizes by the pattern
// axis.
func backingArrays(e *Engine) map[string]unsafe.Pointer {
	m := map[string]unsafe.Pointer{
		"arena":       sliceData(e.arena),
		"scaleArena":  sliceData(e.scaleArena),
		"freeTiles":   sliceData(e.freeTiles),
		"tilePos":     sliceData(e.tilePos),
		"tileIdx":     sliceData(e.tileIdx),
		"tileW":       sliceData(e.tileW),
		"tileCodes":   sliceData(e.tileCodes),
		"tileCodeBuf": sliceData(e.tileCodeBuf),
		"tipFlat":     sliceData(e.tipFlat),
		"tileOf":      sliceData(e.tileOf),
		"valid":       sliceData(e.valid),
		"sumtable":    sliceData(e.sumtable),
		"pendProd":    sliceData(e.pendProd),
		"edgeSweep":   sliceData(e.edgeSweep),
		"walkStack":   sliceData(e.walkStack),
	}
	for i := range e.parts {
		if e.isCAT {
			m[fmt.Sprintf("parts[%d].pcat", i)] = sliceData(e.parts[i].pcat)
		}
	}
	return m
}

// TestEngineSizedOnce holds New to allocating an engine's pattern-axis
// working set once: the arenas for 3·(taxa−2) tiles at the tile size of
// the span — exactly EstimateMemoryBytesPartitioned with the tip vectors
// — the directed-edge bookkeeping for the 2·taxa node ids a frame or a
// tree may name, and every tile-axis buffer at the span's width. A
// relikelihood, a branch sweep, an insertion scan, five bootstrap
// replicates (each compacting the tile axis to its own live patterns)
// and the return to the alignment's weights must leave every backing
// array where New put it, and a replicate switch must allocate nothing
// at all. The worker case holds a worker rank's engine — the master's
// whole alignment and partition set over a crew covering one stripe — to
// the same through the frames of a lease, with its arenas and tile-axis
// buffers at the stripe's size, not the whole axis's.
func TestEngineSizedOnce(t *testing.T) {
	a := randomAlignment(t, rng.New(81), 14, 500)
	catMk := func(pat *msa.Patterns, pr msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
		return gtr.Default(), contentCAT(pat, pr.Lo, pr.Hi, []float64{0.4, 1, 2.2})
	}
	gammaMk := func(*msa.Patterns, msa.PartRange) (*gtr.Model, *gtr.RateCategories) {
		g, err := gtr.NewGamma(0.8, 4)
		if err != nil {
			t.Fatal(err)
		}
		return gtr.Default(), g
	}
	for _, tc := range []struct {
		name   string
		parts  int
		mk     func(*msa.Patterns, msa.PartRange) (*gtr.Model, *gtr.RateCategories)
		worker bool
	}{
		{"cat", 1, catMk, false},
		{"gamma", 1, gammaMk, false},
		{"cat/3parts", 3, catMk, false},
		{"worker stripe", 3, catMk, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			master, pat := partitionedEngine(t, a, tc.parts, 2, tc.mk)
			e, span := master, threads.Range{Hi: pat.NumPatterns()}
			var tap *tapPool
			if tc.worker {
				// The stripe [n/3, n) starts inside partition 0, so the
				// worker holds the last two partitions whole and the first
				// one clipped.
				n := pat.NumPatterns()
				span = threads.Range{Lo: n / 3, Hi: n}
				w, err := BuildWorkerEngine(&WorkerInit{Threads: 2, Stripe: span, Pat: pat, IsCAT: true, NCats: 1})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(w.ThreadPool().Close)
				tap = &tapPool{Pool: master.ThreadPool(), master: master, worker: w}
				master.pool = tap
				e = w
			}

			var sizes []int
			for i := range e.parts {
				if n := min(e.parts[i].hi, span.Hi) - max(e.parts[i].lo, span.Lo); n > 0 {
					sizes = append(sizes, n)
				}
			}
			if tc.worker && len(sizes) != 3 {
				t.Fatalf("the stripe holds %d partitions, want 3", len(sizes))
			}
			reserved := int64(cap(e.arena))*8 + int64(cap(e.scaleArena))*4 + int64(cap(e.tipFlat))*8
			if want := EstimateMemoryBytesPartitioned(e.pat.NumTaxa(), sizes, e.nCat); reserved != want {
				t.Fatalf("New reserved %d bytes of arenas and tip vectors, the estimate is %d", reserved, want)
			}
			n, taxa := span.Len(), e.pat.NumTaxa()
			for name, c := range map[string][2]int{
				"tileIdx":     {cap(e.tileIdx), n},
				"tileW":       {cap(e.tileW), n},
				"tileCodeBuf": {cap(e.tileCodeBuf), taxa * n},
				"tipFlat":     {cap(e.tipFlat), taxa * n * 4},
				"sumtable":    {cap(e.sumtable), cap(e.arena) / e.maxTiles},
				"pendProd":    {cap(e.pendProd), cap(e.arena) / e.maxTiles},
			} {
				if c[0] != c[1] {
					t.Errorf("New reserved %d entries of %s, the span of %d patterns needs %d", c[0], name, n, c[1])
				}
			}
			before := backingArrays(e)
			for name, p := range before {
				if p == nil {
					t.Fatalf("New left %s unallocated", name)
				}
			}

			tr := tree.Random(pat.Names, rng.New(82))
			if err := master.AttachTree(tr); err != nil {
				t.Fatal(err)
			}
			master.LogLikelihood()
			master.OptimizeAllBranches(1, 0)
			p, cands := danglingScan(t, tr, 1<<20)
			master.InvalidateEdge(p.OrigA, p.OrigB)
			master.InvalidateNode(p.Attach)
			master.EvaluateInsertions(p.Root, p.Attach, cands, nil)
			tr.PlugBack(p)
			master.InvalidateNode(p.Attach)

			// Replicate switches: the weights and tree clones are made here,
			// outside what AllocsPerRun measures.
			const drive, measured = 5, 3
			r := rng.New(83)
			weights := make([][]int, drive+measured+1)
			trees := make([]*tree.Tree, len(weights))
			for i := range weights {
				weights[i] = pat.Resample(r)
				trees[i] = tr.Clone()
			}
			next := 0
			replicate := func() {
				master.SetWeights(weights[next])
				if err := master.AttachTree(trees[next]); err != nil {
					t.Fatal(err)
				}
				master.OptimizeAllBranches(1, 0)
				next++
			}
			for range drive {
				replicate()
			}
			if e.TilePatterns() == n {
				t.Fatal("the last replicate dropped no pattern")
			}
			// A worker decodes each replicate's model block into fresh
			// slices (the wire codec's, not the engine's), so its case pins
			// the backing arrays only.
			if allocs := testing.AllocsPerRun(measured, replicate); allocs != 0 && !tc.worker {
				t.Errorf("a replicate switch allocates %.1f times, want 0", allocs)
			}
			master.SetWeights(nil)
			master.LogLikelihood()
			if tap != nil && tap.err != nil {
				t.Fatalf("worker refused a frame: %v", tap.err)
			}
			if e.TilePatterns() != n {
				t.Fatalf("restored engine visits %d of %d patterns", e.TilePatterns(), n)
			}
			// A branch sweep needs both endpoint views of every edge, which
			// are all the internal nodes' views: the reservation is exact.
			if e.nTiles != e.maxTiles {
				t.Errorf("%d of %d reserved tiles bound after a branch sweep", e.nTiles, e.maxTiles)
			}
			for name, p := range backingArrays(e) {
				if p != before[name] {
					t.Errorf("%s was reallocated after New", name)
				}
			}
		})
	}
}

// TestSpanFromCrew: an engine computes the stretch of the axis its
// crew's ranges cover — the whole axis for a crew over it, a stripe for
// a crew over one — and refuses a crew reaching past the axis.
func TestSpanFromCrew(t *testing.T) {
	pat := randomPatterns(t, rng.New(84), 6, 120)
	n := pat.NumPatterns()
	for _, tc := range []struct {
		pool *threads.Pool
		want threads.Range
	}{
		{threads.NewPool(2, n), threads.Range{Hi: n}},
		{threads.NewPoolStripeEven(2, n/4, n/2), threads.Range{Lo: n / 4, Hi: n / 2}},
		{threads.NewPoolStripeEven(3, n/2, n), threads.Range{Lo: n / 2, Hi: n}},
	} {
		e, err := New(pat, gtr.Default(), gtr.NewUniform(n), Config{Pool: tc.pool})
		if err != nil {
			t.Fatal(err)
		}
		if e.span != tc.want || e.TilePatterns() != tc.want.Len() {
			t.Errorf("crew over %v: span %v with %d tile patterns", tc.want, e.span, e.TilePatterns())
		}
		tc.pool.Close()
	}
	past := threads.NewPoolStripeEven(2, n/2, n+1)
	defer past.Close()
	if _, err := New(pat, gtr.Default(), gtr.NewUniform(n), Config{Pool: past}); err == nil {
		t.Error("an engine over a crew reaching past the axis was built")
	}
}

// TestWorkerSkipsPartitionsOutsideStripe: a worker whose stripe lies in
// one partition installs every partition's rate treatment from a model
// block, but decomposes the model of, and fills transition matrices for,
// that partition alone — no kernel of it reads the others'.
func TestWorkerSkipsPartitionsOutsideStripe(t *testing.T) {
	pat, err := msa.CompressPartitioned(randomAlignment(t, rng.New(85), 8, 300), msa.ContiguousPartitions(300, 3))
	if err != nil {
		t.Fatal(err)
	}
	first := pat.PartRanges()[0]
	w, err := BuildWorkerEngine(&WorkerInit{Threads: 1, Stripe: threads.Range{Lo: 1, Hi: first.Hi - 1}, Pat: pat, IsCAT: true, NCats: 1})
	if err != nil {
		t.Fatal(err)
	}
	block := &WireModel{Weights: pat.Weights, IsCAT: true}
	for i, pr := range pat.PartRanges() {
		block.Parts = append(block.Parts, WireModelPart{
			Rates: [6]float64{1, 2, 1, 1, 2, float64(i + 2)}, Freqs: [4]float64{0.25, 0.25, 0.25, 0.25},
			CatRates: []float64{1}, CatAssign: make([]int, pr.Len()),
		})
	}
	if err := w.ApplyWireModel(block); err != nil {
		t.Fatal(err)
	}
	w.fillP(0.1, w.pEval)
	for i := range w.parts {
		ps := &w.parts[i]
		if len(ps.rates.PatternCategory) != ps.hi-ps.lo {
			t.Errorf("partition %d: rate treatment of %d patterns installed, want %d", i, len(ps.rates.PatternCategory), ps.hi-ps.lo)
		}
		installed := ps.model.Rates == block.Parts[i].Rates
		filled := w.pEval[ps.pOff] != [16]float64{}
		if installed != (i == 0) || filled != (i == 0) {
			t.Errorf("partition %d: model installed %v, matrices filled %v; want both only for partition 0", i, installed, filled)
		}
	}
}

// TestStripeCutsSnapOnClippedStarts: a crew over a stripe that starts
// off a partition's 16-pattern grid is snapped relative to the partition
// starts clipped to the stripe — the cut a crew over the stripe's own
// axis, rebased to 0, gets — so a worker's thread partials sum the same
// patterns whatever the stripe's offset.
func TestStripeCutsSnapOnClippedStarts(t *testing.T) {
	pat, err := msa.CompressPartitioned(randomAlignment(t, rng.New(86), 8, 900), msa.ContiguousPartitions(900, 3))
	if err != nil {
		t.Fatal(err)
	}
	parts := pat.PartRanges()
	lo, hi := parts[0].Lo+37, parts[2].Lo+41
	set := gtr.NewPartitionSet(3)
	for i, pr := range parts {
		set.Rates[i] = gtr.NewUniform(pr.Len())
	}
	for _, workers := range []int{2, 3, 5} {
		crew := threads.NewPoolStripeEven(workers, lo, hi)
		if _, err := NewPartitioned(pat, set, Config{Pool: crew}); err != nil {
			t.Fatal(err)
		}
		local := threads.NewPool(workers, hi-lo)
		local.AlignRangesAt(StripeQuantum, []int{0, parts[1].Lo - lo, parts[2].Lo - lo})
		for i, r := range local.Ranges() {
			if got := crew.Ranges()[i]; got != (threads.Range{Lo: r.Lo + lo, Hi: r.Hi + lo}) {
				t.Errorf("%d workers: range %d is %v, the rebased axis cuts [%d, %d)", workers, i, got, r.Lo+lo, r.Hi+lo)
			}
		}
		crew.Close()
		local.Close()
	}
}
