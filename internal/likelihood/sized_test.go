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
	geom           *WorkerGeom
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
		_, err = p.worker.ExecWireJob(&p.job, p.geom)
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
// working set once: the arenas for 3·(taxa−2) tiles at the full axis's
// tile size — exactly EstimateMemoryBytesPartitioned with the tip
// vectors — the directed-edge bookkeeping for the 2·taxa node ids a
// frame or a tree may name, and every tile-axis buffer at the full
// width. A relikelihood,
// a branch sweep, an insertion scan, five bootstrap replicates (each
// compacting the tile axis to its own live patterns) and the return to
// the alignment's weights must leave every backing array where New put
// it, and a replicate switch must allocate nothing at all. The worker
// case holds a stripe engine to the same through the frames of a lease.
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
			e := master
			var tap *tapPool
			if tc.worker {
				// The stripe [n/3, n) starts inside partition 0, so the
				// worker has two local partitions, the first one clipped.
				n := pat.NumPatterns()
				sp, partMap, clipOff := pat.Slice(n/3, n)
				geom := &WorkerGeom{StripeLo: n / 3, StripeHi: n, MasterParts: pat.NumParts(), PartMap: partMap, ClipOff: clipOff}
				w, err := BuildWorkerEngine(&WorkerInit{Rank: 1, Ranks: 2, Threads: 2, Geom: *geom, Pat: sp, IsCAT: true, NCats: 1})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(w.ThreadPool().Close)
				tap = &tapPool{Pool: master.ThreadPool(), master: master, worker: w, geom: geom}
				master.pool = tap
				e = w
			}

			var sizes []int
			for i := range e.parts {
				sizes = append(sizes, e.parts[i].hi-e.parts[i].lo)
			}
			reserved := int64(cap(e.arena))*8 + int64(cap(e.scaleArena))*4 + int64(cap(e.tipFlat))*8
			if want := EstimateMemoryBytesPartitioned(e.pat.NumTaxa(), sizes, e.nCat); reserved != want {
				t.Fatalf("New reserved %d bytes of arenas and tip vectors, the estimate is %d", reserved, want)
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
			if e.TilePatterns() == e.nPatterns {
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
			if e.TilePatterns() != e.nPatterns {
				t.Fatalf("restored engine visits %d of %d patterns", e.TilePatterns(), e.nPatterns)
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
