// Package likelihood implements the phylogenetic likelihood function —
// the computational core of RAxML and the code whose per-pattern loops
// the paper's fine-grained Pthreads parallelization targets.
//
// The engine computes log L(tree, branch lengths, model) for an
// alignment compressed to weighted site patterns (package msa) under a
// GTR model with CAT or Γ rate heterogeneity (package gtr), using
// Felsenstein's pruning algorithm over conditional likelihood vectors
// (CLVs) with numerical rescaling. All per-pattern kernels (newview,
// evaluate, branch-length derivatives) are partitioned over a
// threads.Pool, reproducing the master/worker structure of RAxML's
// Pthreads code: the pool *is* the fine-grained parallelism whose
// scalability in the number of patterns drives the paper's "optimal
// thread count grows with patterns" result.
//
// Partitions. A multi-gene alignment assigns every site to a partition
// (RAxML's -q files; msa.CompressPartitioned) and every partition owns
// an independent model instance — base frequencies, exchangeabilities,
// Γ shape or CAT assignment (gtr.PartitionSet). The engine generalizes
// the whole stack from one implicit partition to N explicit ones: the
// pattern axis is the partition-major concatenation of the per-gene
// pattern sets, CLV tiles are segmented per partition, traversal
// descriptors carry per-(entry, partition) transition matrices, and the
// total log-likelihood is the sum of per-partition components under
// linked (shared) branch lengths. The single-gene engine is simply the
// one-partition special case running the same code.
//
// Directed CLVs. An unrooted tree has no fixed root; the CLV at a node
// depends on the viewing direction. The engine stores one CLV per
// directed edge (node, neighbor-slot): clv(u, i) is the conditional
// likelihood of the subtree seen from u looking away from neighbor i.
// CLVs are computed lazily with validity flags; branch-length changes
// and the SPR edits of the search invalidate precisely the directions
// that can observe the changed edge or junction (InvalidateEdge,
// InvalidateNode), model changes invalidate everything.
//
// Flat CLV arena. All directed CLVs live in ONE contiguous []float64
// owned by the engine, carved into fixed-size tiles. A tile is the
// concatenation of per-partition segments, each pattern-major
// (segment + local_pattern·nCat·4 + cat·4 + state) and padded to whole
// 64-byte cache lines, so a worker's stripe of any partition's CLV is
// one contiguous, streamable block and stripe boundaries snapped
// relative to partition starts never share a line. The arena is
// allocated once, in New, with room for every directed view of the
// taxa−2 internal nodes at the tile size of the patterns the engine
// computes (its span: the whole axis but on a worker rank of a
// distributed grid, whose crew covers its stripe); directed edges are
// bound to tiles lazily on first use through a free list, and binding,
// bootstrap replicates and searches only re-slice it. See
// docs/memory-layout.md for the layout sketch and offset formulas.
//
// Traversal descriptors. Lazy CLV maintenance is split from execution,
// mirroring RAxML's traversalInfo machinery (see traversal.go): the
// master plans a traversal — the ordered list of stale directed CLVs
// with child references and branch lengths — precomputes every entry's
// per-partition transition matrices, and posts the whole plan to the
// pool as ONE job code (threads.JobEvaluate, JobMakenewz, ...). Workers
// walk the full descriptor over their private pattern ranges, so a
// full-tree relikelihood — partitioned or not — costs one barrier
// crossing, and posting allocates nothing. The serial path is the same
// code run inline by a 1-worker pool.
package likelihood

import (
	"fmt"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

const (
	// scaleThreshold triggers CLV rescaling: when every entry of a
	// pattern's CLV drops below it, the pattern is multiplied by
	// scaleFactor and a per-pattern counter incremented.
	scaleThreshold = 1e-256
	scaleFactor    = 1e256
	logScaleFactor = 589.4971701159494 // ln(1e256)
)

// noTile marks a directed edge with no arena tile bound yet.
const noTile = int32(-1)

// StripeQuantum is the pattern quantum worker stripes are snapped to:
// 16 patterns is a whole number of 64-byte cache lines for every tiled
// buffer (2 CAT patterns/line, 1+ GAMMA patterns/line, 16 int32 scale
// counters/line), and partition segments are padded to the same lines,
// so snapping relative to partition starts keeps workers off shared
// lines in both arenas. It is also a whole number of SIMD lane blocks:
// a worker's chunk always holds complete 4-lane pattern blocks, so the
// dispatched vector kernels (kernels_dispatch.go) stream [16]float64
// blocks without ever splitting a pattern across workers. Rank stripes
// (finegrain) snap to it as well, so rank boundaries land exactly where
// thread boundaries are allowed to land.
const StripeQuantum = 16

// GammaCats is the category count of every GAMMA treatment an engine
// runs: the four-category discrete Γ, which the newview and makenewz
// kernels are written for. The constructors refuse any other count.
const GammaCats = 4

// Dispatcher is the fine-grained execution substrate the engine posts
// its job codes to. *threads.Pool — the in-process Pthreads analogue —
// is the canonical implementation; finegrain.Pool implements the same
// contract with workers distributed over fabric ranks (remote
// processes), each owning a stripe of the pattern axis. The engine is
// written against this interface so the single-process and distributed
// hybrids run exactly the same planning, kernel and reduction code:
// the contract is job codes in, deterministic worker-order (and, for
// the distributed pool, rank-order) reductions out.
type Dispatcher interface {
	// Post runs one job code over every worker's range and returns when
	// all have finished: one dispatch and at most one barrier crossing (a
	// thread pool runs a job too short to share on the posting goroutine).
	Post(runner threads.JobRunner, code threads.JobCode)
	// Workers returns the number of local workers (the crew executing
	// RunJob in this process).
	Workers() int
	// Slot returns local worker w's fixed-width reduction slot.
	Slot(w int) *[threads.SlotWidth]float64
	// SumSlots and SumSlots2 combine reduction partials across ALL
	// workers of the substrate (local and remote), deterministically.
	SumSlots(i int) float64
	SumSlots2(i, j int) (float64, float64)
	// EnsureWide, WideSlot and SumWide are the variable-width
	// per-partition reduction storage (threads.Pool semantics).
	EnsureWide(width int)
	WideSlot(w int) []float64
	SumWide(i int) float64
	// AlignRangesAt snaps local worker stripes to tile quanta.
	AlignRangesAt(quantum int, starts []int)
	// ForkJoinRange is the master-side precomputation helper over the
	// window [lo, hi) — the chunked P-matrix fills run through it: the
	// chunks run on the crew, but no job code is posted and no dispatch
	// counted.
	ForkJoinRange(lo, hi, grain int, fn func(lo, hi int))
	// Dispatches counts the jobs posted so far.
	Dispatches() int64
}

// sumtableGatherer is implemented by distributed dispatchers that can
// bring every remote stripe's sumtable rows home on the JobMakenewzSetup
// partial. The answer is fixed for the dispatcher's life; an engine reads
// it once, at construction.
type sumtableGatherer interface {
	GathersSumtable() bool
}

// workerScratch is one local worker's kernel scratch: the clamped site
// likelihoods of a log block and their logarithms (kernels_log.go), the
// sumtable bases of the partition chunk a makenewz setup is projecting,
// and the probability-folded factor block of a GAMMA makenewz core
// chunk. It is engine-owned, one per local worker, not stack arrays:
// arguments of a call through a func-valued table entry escape, so stack
// scratch would be a heap allocation on every chunk.
type workerScratch struct {
	site, logs  [logBlockLen]float64
	left, right [16]float64
	pw          [48]float64
}

// partState is one partition's slice of the engine: its span on the
// concatenated pattern axis, its model instance, and the offsets of its
// segment within every CLV tile and matrix scratch buffer.
type partState struct {
	name   string
	lo, hi int // global pattern span [lo, hi)

	// tlo, thi is the partition's span on the tile axis (compact.go): its
	// live patterns, which every kernel visits. keep is the alignment index
	// of each of them and pcat their CAT categories (nil for GAMMA
	// treatments), gathered from rates.PatternCategory.
	tlo, thi int
	keep     []int32
	pcat     []int

	// fOff is the float64 offset of the partition's CLV segment within
	// a tile; sOff the int32 offset of its scale segment. Both segment
	// strides are padded to whole 64-byte cache lines.
	fOff, sOff int

	model *gtr.Model
	rates *gtr.RateCategories

	// maxCat is the highest category index rates.PatternCategory holds
	// (0 for GAMMA treatments). installRates, the only writer of *rates,
	// keeps it exact, so a kernel wrapper bounds every per-pattern matrix
	// index with one check of its matrix block against maxCat instead of a
	// scan of the assignment.
	maxCat int

	// pOff is the partition's offset into every per-category matrix
	// buffer (prefix sum of NumCats over preceding partitions; see
	// ensureP). A partition's matrices for category c live at pOff+c.
	pOff int
}

// Engine evaluates and optimizes the likelihood of trees over one
// (possibly partitioned) pattern set. An Engine is bound to at most one
// tree at a time (AttachTree) and is not safe for concurrent use by
// multiple goroutines; coarse-grained parallelism uses one Engine per
// rank.
type Engine struct {
	pat   *msa.Patterns
	parts []partState
	pool  Dispatcher

	tree    *tree.Tree
	weights []int

	// span is the stretch of the alignment axis the engine computes: the
	// union of its crew's ranges, the whole axis for a dispatcher that
	// reports none. It is the whole axis everywhere but on a worker rank
	// of a distributed grid, whose crew covers its stripe.
	span threads.Range

	// The tile axis (compact.go): the live (non-zero-weight) patterns of
	// the span, in alignment order — the axis every CLV tile,
	// tip vector, sumtable and pendant product is laid out on. tilePos[k]
	// counts the live patterns before alignment pattern k (nPatterns+1
	// entries) and tileIdx[i] is the alignment pattern at tile position
	// i. tileN is the axis length, tileW the weights and tileCodes the tip
	// state rows on it (rows of tileCodeBuf). All of them are reused
	// across replicates.
	tilePos, tileIdx []int32
	tileN            int
	tileW            []int
	tileCodes        [][]msa.State
	tileCodeBuf      []msa.State

	nPatterns int
	nCat      int  // CLV categories per pattern: 1 for CAT, GammaCats for GAMMA
	isCAT     bool // uniform across partitions (gtr.PartitionSet.Validate)
	totalCats int  // Σ per-partition matrix category counts (ensureP)

	// kern is the kernel implementation set bound at construction
	// (kernels_dispatch.go): scalar reference or AVX2 assembly for the
	// hot per-pattern loops, selected by the process-wide SetKernelMode.
	kern *kernelTable

	// The flat CLV arena. arena holds nTiles tiles of tileFloats
	// float64 each; scaleArena holds the matching rescaling counters,
	// tileScale int32 per tile. A tile is the concatenation of
	// per-partition segments, every segment stride padded up to full
	// 64-byte cache lines (8 float64 / 16 int32) so each segment starts
	// on its own line and partition-relative stripe snapping keeps
	// workers off each other's lines. tileOf[node*3+slot] maps a
	// directed edge to its tile (noTile until first needed), for the
	// 2·taxa node ids a tree over the engine's taxa (or a frame a worker
	// admits, checkWireJob) can name; freeTiles recycles tiles released by
	// AttachTree. The float64 offset of
	// directed CLV (node, slot) at tile-axis pattern k (in partition p),
	// category c, state s is
	//
	//	tileOf[node*3+slot]*tileFloats + p.fOff + (k-p.tlo)*nCat*4 + c*4 + s
	//
	// Both arenas are allocated in New with capacity for maxTiles tiles
	// at the span's tile size (reserve); tileFor binds inside it.
	arena      []float64
	scaleArena []int32
	tileOf     []int32
	freeTiles  []int32
	nTiles     int
	maxTiles   int
	tileFloats int
	tileScale  int

	// valid[node*3+slot] marks CLVs consistent with the current tree.
	// coarse is the reference invalidation policy captured at
	// construction (SetCoarseInvalidation): InvalidateNode degrades to
	// InvalidateAll.
	valid  []bool
	coarse bool

	// tipFlat packs every taxon's (undirected) tip CLV into one flat
	// block: tipFlat[taxon*tileN*4 + pattern*4 + state] over the tile
	// axis, shared across categories and partitions (tip states are
	// model-free).
	tipFlat []float64
	// tipCodes[taxon] lists, in increasing order, the ambiguity codes
	// 1..15 that occur in the taxon's pattern row over the span — the
	// tip lookup tables are only filled for codes that can be indexed.
	tipCodes [][]msa.State

	// scratch transition matrices, indexed [part.pOff + category]
	// (master-computed, read-only inside parallel sections). pPend holds
	// the pendant-branch matrices of the insertion scan, pEval/pD1/pD2
	// serve the evaluate and makenewz kernels. Per-entry newview matrices
	// live in the traversal arena, per-candidate scan matrices in scanP.
	// Every P(t) block among them is filled through memo (pmemo.go), which
	// keeps the blocks of one (modelEpoch, totalCats) by branch length.
	pPend    [][16]float64
	pEval    [][16]float64
	pD1, pD2 [][16]float64
	memo     pMemo

	// The insertion-scan batch (scan.go): the candidates of the prune
	// being scored, in symbolic and resolved form, and their P(txy/2)
	// matrices — candidate i's at scanP[i*totalCats + part.pOff +
	// category], both halves of the split insertion edge sharing them.
	// fillScanFn is the bound fill method the fork runs. Reused across
	// scans for the engine's whole life.
	scanCands  []scanCand
	scanP      [][16]float64
	fillScanFn func(lo, hi int)
	// pendProd is the pendant-product scratch of the scan in flight: ONE
	// tile-shaped buffer (tileFloats float64, the segments of a CLV tile)
	// holding P(pendant)·subtree per pattern and category, which every
	// candidate of the prune shares. Each worker fills its own stripe at
	// the top of the scan job and reads nothing else.
	pendProd []float64

	// scratch[w] is local worker w's kernel scratch.
	scratch []workerScratch

	// traversal descriptor state (see traversal.go): the ordered list
	// of stale directed CLVs posted to the pool as one job, its
	// transition-matrix arena, the tip-lookup-table arena, and the
	// window workers execute. All buffers are reused across jobs for
	// the engine's whole life.
	trav            []travEntry
	travP           [][16]float64
	travLUT         []float64
	travLo, travHi  int
	perNodeDispatch bool

	// travFillNext is the absolute descriptor index up to which P
	// matrices and tip LUTs are filled. A pipelining Dispatcher (see
	// fillPipeliner) defers the fill from prepareTraversal to a
	// FillTravChunk call after the frame has left; other pools fill
	// everything in prepareTraversal and leave this == len. fillTravFn is
	// the bound fill method, created once so the hot path never
	// re-allocates a method-value closure.
	travFillNext int
	fillTravFn   func(lo, hi int)

	// job inputs published before posting a job code: the job's branch
	// length (an edge job's edge, a scan's pendant branch), the symbolic
	// (tip taxon / directed-edge) form of its views — the two endpoints of
	// an edge job, the subtree of an insertion scan, whose candidates'
	// views are in scanCands — which is what a distributed Dispatcher
	// ships, those views resolved against the local arena (prepJob), and
	// the site-LL output.
	jobT    float64
	jobWire [2]WireView
	jobV    [2]childView
	jobDst  []float64

	// modelEpoch counts invalidation points at which model state
	// (parameters, rate treatments, weights) may have changed; a
	// distributed Dispatcher ships a model-sync block whenever the
	// epoch moved since its last broadcast. Every model mutation goes
	// through InvalidateAll (stale CLVs otherwise), so bumping there
	// can never miss a change; topology edits go through InvalidateEdge
	// and InvalidateNode, which leave the epoch alone. topoEpoch counts
	// AttachTree calls, after which remote ranks must reset their tile
	// bindings. modelBlocks counts the model-sync blocks encoded so far.
	modelEpoch  uint64
	topoEpoch   uint64
	modelBlocks int64

	// serialPool is the lazily created fallback of ThreadPool for
	// engines running on a non-threads Dispatcher.
	serialPool *threads.Pool

	// wire buffers, reused across jobs (remote.go): the encoded job
	// frame on the master, the encoded partial and site-LL scratch on
	// a worker rank.
	wireBuf        []byte
	wirePartialBuf []byte
	wireSiteLL     []float64

	// statistics
	newviewCount int64
	evalCount    int64

	// Eigen-basis makenewz state (makenewz.go). sumtable is the
	// persistent worker-owned sumtable arena: ONE tile-shaped buffer
	// (tileFloats float64, the same per-partition padded segments as a
	// CLV tile) holding the per-(site, category) 4-entry eigen-basis
	// sumtables of the branch being Newton-optimized; each worker fills
	// and reads only its stripe. mkzExp/mkzD1/mkzD2 are the per-
	// (partition, category) exponential factors of the current iterate
	// (4 float64 each at [(pOff+c)*4]), the only thing a distributed
	// dispatcher ships per Newton iteration when it ships anything at
	// all (see gatherSumtable). lastNewtonIters records the
	// iteration count of the most recent OptimizeBranch (dispatch-
	// accounting tests); legacyMakenewz routes OptimizeBranch through
	// the full-matrix JobMakenewz kernel (golden tests, ablation).
	//
	// gatherSumtable says the sumtable of the branch in flight is whole in
	// THIS engine's arena and the Newton derivatives are reduced over the
	// full axis on the master goroutine, with no job posted: true on a
	// master whose distributed dispatcher gathers the remote stripes' rows
	// on the setup partial (sumtableGatherer, read once at construction),
	// and on a worker rank for the duration of a setup job whose frame
	// asked for its rows.
	sumtable             []float64
	mkzExp, mkzD1, mkzD2 []float64
	lastNewtonIters      int
	legacyMakenewz       bool
	gatherSumtable       bool

	// edgeSweep is the reused buffer of the DFS edge ordering
	// OptimizeAllBranches sweeps in (optimize.go); walkStack the reused
	// (node, parent) stack of that walk and of invalidateSide.
	edgeSweep []tree.Edge
	walkStack [][2]int

	// siteRates is the scratch of OptimizePerSiteRates (optimize.go).
	siteRates siteRateScratch
}

// Config carries the optional knobs of New.
type Config struct {
	// Pool supplies fine-grained parallelism: a *threads.Pool for the
	// in-process hybrid, a finegrain.Pool for distributed workers; nil
	// means a serial single-worker pool.
	Pool Dispatcher
}

// New creates a single-partition engine over the pattern set with the
// given model and rate treatment — the pre-partition constructor, kept
// as the one-gene special case: the whole pattern axis forms one
// partition regardless of pat.Parts. The engine takes ownership of none
// of its arguments; model and rates may be mutated through the engine's
// optimizers.
func New(pat *msa.Patterns, model *gtr.Model, rates *gtr.RateCategories, cfg Config) (*Engine, error) {
	set := &gtr.PartitionSet{
		Models: []*gtr.Model{model},
		Rates:  []*gtr.RateCategories{rates},
	}
	span := []msa.PartRange{{Name: "all", Lo: 0, Hi: pat.NumPatterns()}}
	return build(pat, span, set, cfg)
}

// NewPartitioned creates an engine over a partitioned pattern set
// (msa.CompressPartitioned) with one model instance per partition. The
// set must pass gtr.(*PartitionSet).Validate against the partition
// sizes: one treatment kind for all partitions, CAT assignments indexed
// locally (partition-relative).
func NewPartitioned(pat *msa.Patterns, set *gtr.PartitionSet, cfg Config) (*Engine, error) {
	spans := pat.PartRanges()
	sizes := make([]int, len(spans))
	for i, r := range spans {
		sizes[i] = r.Len()
	}
	if err := set.Validate(sizes); err != nil {
		return nil, fmt.Errorf("likelihood: %v", err)
	}
	return build(pat, spans, set, cfg)
}

// build is the shared constructor: lay out the per-partition tile
// segments, bind the pool, and size the scratch buffers.
func build(pat *msa.Patterns, spans []msa.PartRange, set *gtr.PartitionSet, cfg Config) (*Engine, error) {
	if pat.NumTaxa() < 4 {
		return nil, fmt.Errorf("likelihood: %d taxa, need >= 4", pat.NumTaxa())
	}
	if len(spans) != set.NumPartitions() {
		return nil, fmt.Errorf("likelihood: %d partition spans for %d model instances",
			len(spans), set.NumPartitions())
	}
	if !set.IsCAT() && set.ClvCats() != GammaCats {
		return nil, fmt.Errorf("likelihood: GAMMA with %d categories, the engine runs %d", set.ClvCats(), GammaCats)
	}
	e := &Engine{
		pat:       pat,
		nPatterns: pat.NumPatterns(),
		isCAT:     set.IsCAT(),
		nCat:      set.ClvCats(),
		kern:      activeKernelTable(),
		coarse:    coarseInvalidation,
		memo:      pMemo{bypass: memoBypass},
	}
	lo := 0
	for i, r := range spans {
		if r.Lo != lo || r.Hi < r.Lo {
			return nil, fmt.Errorf("likelihood: partition %q spans [%d, %d), want start %d (partition-major tiling)",
				r.Name, r.Lo, r.Hi, lo)
		}
		lo = r.Hi
		ps := partState{
			name: r.Name, lo: r.Lo, hi: r.Hi,
			model: set.Models[i], rates: set.Rates[i],
		}
		if err := ps.installRates(*set.Rates[i]); err != nil {
			return nil, err
		}
		e.parts = append(e.parts, ps)
	}
	if lo != e.nPatterns {
		return nil, fmt.Errorf("likelihood: partitions cover %d patterns, set has %d", lo, e.nPatterns)
	}
	if cfg.Pool != nil {
		e.pool = cfg.Pool
	} else {
		e.pool = threads.NewPool(1, e.nPatterns)
	}
	// The span is the union of the crew's ranges when the dispatcher
	// reports them (a *threads.Pool, or anything embedding one), the
	// whole axis when it does not (a distributed finegrain.Pool).
	e.span = threads.Range{Hi: e.nPatterns}
	if c, ok := e.pool.(interface{ Ranges() []threads.Range }); ok {
		rs := c.Ranges()
		e.span = threads.Range{Lo: rs[0].Lo, Hi: rs[len(rs)-1].Hi}
		if e.span.Lo < 0 || e.span.Lo >= e.span.Hi || e.span.Hi > e.nPatterns {
			return nil, fmt.Errorf("likelihood: the crew covers patterns [%d, %d) of %d", e.span.Lo, e.span.Hi, e.nPatterns)
		}
	}
	// Snap worker stripe boundaries — relative to the starts of the
	// segments laid out above, each partition clipped to the span (NOT
	// pat.PartStarts(): New() spans a partitioned Patterns with ONE
	// segment, and only segment starts are line-aligned in the tile
	// layout) — so no two workers write the same 64-byte cache line of
	// any tile segment. The binding constraint is the scale counters (16
	// int32 per line); 16 patterns is also a multiple of every CLV line
	// quantum, and the padded per-segment strides keep segment starts
	// line-aligned, so the quantum covers both arenas in every segment.
	starts := make([]int, len(e.parts))
	for i := range e.parts {
		starts[i] = min(max(e.parts[i].lo, e.span.Lo), e.span.Hi)
	}
	e.pool.AlignRangesAt(StripeQuantum, starts)
	e.pool.EnsureWide(len(e.parts))
	if g, ok := e.pool.(sumtableGatherer); ok {
		e.gatherSumtable = g.GathersSumtable()
	}
	e.scratch = make([]workerScratch, e.pool.Workers())
	e.fillTravFn = e.fillTravMatrices
	e.fillScanFn = e.fillScanHalves
	e.tipCodes = make([][]msa.State, pat.NumTaxa())
	for taxon, row := range pat.Data {
		var mask uint16
		for _, s := range row[e.span.Lo:e.span.Hi] {
			mask |= 1 << uint(s)
		}
		for code := msa.State(1); code < 16; code++ {
			if mask&(1<<uint(code)) != 0 {
				e.tipCodes[taxon] = append(e.tipCodes[taxon], code)
			}
		}
	}
	e.weights = append([]int(nil), pat.Weights...)
	e.reserve()
	e.layoutTiles()
	e.ensureP()
	return e, nil
}

// reserve allocates the engine's pattern-axis working set, once. The
// arenas get room for 3·(taxa−2) tiles — every directed view of an
// unrooted tree's internal nodes; tips use the tip vectors — at the tile
// size of the whole span, and every buffer laid out on the tile axis gets
// the span's width. A replicate's compacted axis, the return to full
// weights, a search and a tile binding then only re-slice them
// (layoutTiles, tileFor), so the engine's footprint is fixed here and no
// grown-out copy is left for the collector.
func (e *Engine) reserve() {
	taxa, n := e.pat.NumTaxa(), e.span.Len()
	floats, scale := 0, 0
	for i := range e.parts {
		ps := &e.parts[i]
		np := max(0, min(ps.hi, e.span.Hi)-max(ps.lo, e.span.Lo))
		f, sc := segmentSize(np, e.nCat)
		floats, scale = floats+f, scale+sc
		if e.isCAT {
			ps.pcat = make([]int, 0, np)
		}
	}
	e.maxTiles = 3 * (taxa - 2)
	e.arena = make([]float64, 0, e.maxTiles*floats)
	e.scaleArena = make([]int32, 0, e.maxTiles*scale)
	e.freeTiles = make([]int32, 0, e.maxTiles)
	e.tileOf = make([]int32, 3*2*taxa)
	for i := range e.tileOf {
		e.tileOf[i] = noTile
	}
	e.valid = make([]bool, 3*2*taxa)
	e.tilePos = make([]int32, e.nPatterns+1)
	e.tileIdx = make([]int32, 0, n)
	e.tileW = make([]int, 0, n)
	e.tileCodes = make([][]msa.State, taxa)
	e.tileCodeBuf = make([]msa.State, 0, taxa*n)
	e.tipFlat = make([]float64, 0, taxa*n*4)
	e.sumtable = make([]float64, 0, floats)
	e.pendProd = make([]float64, 0, floats)
	// A tree of taxa tips has 2·taxa−3 edges and 2·taxa−2 nodes, the
	// bound of every walk's stack.
	e.edgeSweep = make([]tree.Edge, 0, 2*taxa-3)
	e.walkStack = make([][2]int, 0, 2*taxa-2)
	e.siteRates.reserve(e)
}

// buildTipVectors lays every taxon's tip CLV out over the tile axis: a
// 1 in each state its code admits, 0 elsewhere.
func (e *Engine) buildTipVectors() {
	n := e.tileN * 4
	e.tipFlat = e.tipFlat[:len(e.tileCodes)*n]
	for taxon, row := range e.tileCodes {
		v := e.tipFlat[taxon*n : (taxon+1)*n]
		for k, s := range row {
			for st := 0; st < 4; st++ {
				v[k*4+st] = float64(s >> uint(st) & 1)
			}
		}
	}
}

// tipVecOf returns taxon's flat tip CLV ([pattern*4 + state], tile axis).
func (e *Engine) tipVecOf(taxon int) []float64 {
	return e.tipFlat[taxon*e.tileN*4 : (taxon+1)*e.tileN*4]
}

// Pool returns the engine's execution substrate.
func (e *Engine) Pool() Dispatcher { return e.pool }

// ThreadPool returns the engine's substrate as an in-process
// *threads.Pool when it is one (the common case), or a lazily created
// serial pool over the full pattern axis otherwise. Engines that need
// a plain thread crew over the whole axis — the parsimony engine's
// Fitch kernels are not distributed — use this instead of Pool.
func (e *Engine) ThreadPool() *threads.Pool {
	if p, ok := e.pool.(*threads.Pool); ok {
		return p
	}
	if e.serialPool == nil {
		e.serialPool = threads.NewPool(1, e.nPatterns)
	}
	return e.serialPool
}

// Model returns partition 0's substitution model — the engine's only
// model for single-partition data.
func (e *Engine) Model() *gtr.Model { return e.parts[0].model }

// Rates returns partition 0's rate treatment.
func (e *Engine) Rates() *gtr.RateCategories { return e.parts[0].rates }

// NumPartitions returns the number of alignment partitions.
func (e *Engine) NumPartitions() int { return len(e.parts) }

// Patterns returns the engine's pattern set.
func (e *Engine) Patterns() *msa.Patterns { return e.pat }

// Tree returns the currently attached tree (nil before AttachTree).
func (e *Engine) Tree() *tree.Tree { return e.tree }

// Counts returns the number of newview and evaluate kernel invocations
// since construction — the work measure the performance model is
// calibrated against.
func (e *Engine) Counts() (newviews, evals int64) {
	return e.newviewCount, e.evalCount
}

// MemoryBytes returns the engine's current likelihood-buffer footprint:
// the CLV arena, its scaling counters, the tip vectors, the makenewz
// sumtable arena (one extra tile once branch-length optimization has
// run), the pendant-product scratch (one more once an insertion scan
// has) and the transition-matrix memo's block budget. Section 7
// of the paper predicts that growing pattern counts will force one rank
// to own the memory of many cores ("perhaps even the entire node");
// this accessor quantifies the per-rank footprint driving that
// prediction. Because the arena is one flat allocation, the figure is
// exact, not a sum over stray slices.
func (e *Engine) MemoryBytes() int64 {
	return int64(len(e.arena))*8 + int64(len(e.scaleArena))*4 +
		int64(len(e.tipFlat))*8 + int64(len(e.sumtable))*8 + int64(len(e.pendProd))*8 +
		int64(len(e.memo.blocks))*16*8
}

// EstimateMemoryBytesPartitioned predicts the fully populated CLV-arena
// footprint of an engine over a partitioned alignment, exactly: only
// the taxa−2 internal nodes of an unrooted tree carry directed CLVs
// (3 tiles each; tips use the shared flat tip vectors), every tile
// holds one segment per partition of 4·nCat float64 per pattern plus an
// int32 scaling counter per pattern (every segment stride padded to
// whole 64-byte cache lines), and each taxon owns a flat 4-wide tip
// vector over the concatenated pattern axis. GTRCAT uses nCat = 1 per
// pattern; GTRGAMMA nCat = 4 — the 4x memory ratio is why RAxML (and
// this reproduction) default large analyses to CAT.
func EstimateMemoryBytesPartitioned(taxa int, partPatterns []int, nCat int) int64 {
	if taxa < 2 || nCat < 1 || len(partPatterns) == 0 {
		return 0
	}
	patterns := 0
	perTile, perScale := int64(0), int64(0)
	for _, np := range partPatterns {
		if np < 1 {
			return 0
		}
		patterns += np
		f, sc := segmentSize(np, nCat)
		perTile += int64(f) * 8
		perScale += int64(sc) * 4
	}
	tiles := int64(taxa-2) * 3
	tips := int64(taxa) * int64(patterns) * 4 * 8
	return tiles*(perTile+perScale) + tips
}

// SetWeights installs a pattern weight vector (a bootstrap replicate).
// Pass nil to restore the original alignment weights. All cached CLVs
// are invalidated: the kernels visit only the live patterns, so a
// replicate that drops or revives one re-lays the tiles out (compact.go).
func (e *Engine) SetWeights(w []int) {
	if w == nil {
		w = e.pat.Weights
	} else if len(w) != e.nPatterns {
		panic(fmt.Sprintf("likelihood: weight vector has %d entries, want %d", len(w), e.nPatterns))
	}
	e.installWeights(w)
	e.InvalidateAll()
}

// Weights returns the active weight vector (read-only).
func (e *Engine) Weights() []int { return e.weights }

// AttachTree binds the engine to a tree and invalidates all CLVs.
// The tree's taxon set must match the pattern set's rows. Every
// tile→edge binding is released back to the free list, so successive
// attachments (bootstrap replicates, restarts) reuse the arena instead
// of growing it.
func (e *Engine) AttachTree(t *tree.Tree) error {
	if t.NumTaxa() != e.pat.NumTaxa() {
		return fmt.Errorf("likelihood: tree has %d taxa, patterns have %d", t.NumTaxa(), e.pat.NumTaxa())
	}
	if 3*t.MaxNodeID() > len(e.tileOf) {
		return fmt.Errorf("likelihood: tree has %d node ids, %d taxa allow %d", t.MaxNodeID(), t.NumTaxa(), len(e.tileOf)/3)
	}
	e.tree = t
	e.releaseTiles()
	e.InvalidateAll()
	e.topoEpoch++
	return nil
}

// releaseTiles unbinds every directed edge from its tile and returns
// all tiles to the free list. The arena itself is retained.
func (e *Engine) releaseTiles() {
	for i := range e.tileOf {
		e.tileOf[i] = noTile
	}
	e.freeTiles = e.freeTiles[:0]
	for t := e.nTiles - 1; t >= 0; t-- {
		e.freeTiles = append(e.freeTiles, int32(t))
	}
}

// tileFor returns the arena tile bound to the directed edge
// (node, slot), binding one lazily on first use: free-listed tiles are
// reused before the next reserved tile is sliced in. A tree over the
// engine's taxa has 3·(taxa−2) internal views and a worker refuses a
// frame naming any other (checkWireJob), so running out of reserved
// tiles is a bug, not a reason to grow.
func (e *Engine) tileFor(node, slot int) int32 {
	idx := node*3 + slot
	t := e.tileOf[idx]
	if t != noTile {
		return t
	}
	if n := len(e.freeTiles); n > 0 {
		t = e.freeTiles[n-1]
		e.freeTiles = e.freeTiles[:n-1]
	} else {
		if e.nTiles == e.maxTiles {
			panic(fmt.Sprintf("likelihood: directed edge (%d, %d) needs tile %d, but %d taxa reserve %d (3 per internal node)",
				node, slot, e.nTiles+1, e.pat.NumTaxa(), e.maxTiles))
		}
		t = int32(e.nTiles)
		e.nTiles++
		e.arena = e.arena[:e.nTiles*e.tileFloats]
		e.scaleArena = e.scaleArena[:e.nTiles*e.tileScale]
	}
	e.tileOf[idx] = t
	return t
}

// clvOffset returns the float64 offset of directed CLV (node, slot) in
// the arena, binding a tile on first use.
func (e *Engine) clvOffset(node, slot int) int {
	return int(e.tileFor(node, slot)) * e.tileFloats
}

// scaleOffset returns the int32 offset of the scaling counters of the
// directed CLV (node, slot). Must be called after the tile is bound.
func (e *Engine) scaleOffset(node, slot int) int {
	return int(e.tileOf[node*3+slot]) * e.tileScale
}

// segmentSize returns the strides of one partition's tile segment over n
// patterns: nCat·4 float64 and one int32 scale counter per pattern, each
// padded to whole 64-byte cache lines so segments never share a line.
func segmentSize(n, nCat int) (floats, scale int) {
	return padTo(n*nCat*4, 8), padTo(n, 16)
}

// padTo rounds n up to the next multiple of q.
func padTo(n, q int) int {
	return (n + q - 1) / q * q
}

// InvalidateAll marks every cached CLV stale and advances the model
// epoch: every model-state mutation in the engine ends in an
// InvalidateAll, so distributed dispatchers use the epoch as the "ship a
// model-sync block" trigger.
func (e *Engine) InvalidateAll() {
	for i := range e.valid {
		e.valid[i] = false
	}
	e.modelEpoch++
}

// coarseInvalidation is the process-wide reference policy engines
// capture at construction, like kernelMode.
var coarseInvalidation bool

// SetCoarseInvalidation makes engines constructed afterwards answer
// InvalidateNode with InvalidateAll — everything stale and a model-sync
// block after every topology edit. It is the reference the precise
// path is pinned to (same trees, same likelihood bits); production code
// never enables it.
func SetCoarseInvalidation(on bool) { coarseInvalidation = on }

// InvalidateEdge marks stale exactly the directed CLVs whose view
// contains edge (u, v) — every direction except the one looking toward
// the edge. Called after changing the branch length of (u, v), or after
// a topology edit created the edge.
func (e *Engine) InvalidateEdge(u, v int) {
	// clv(x, i) is the view of the component containing x when edge
	// (x, nb[i]) is cut. That view excludes the changed edge exactly
	// when nb[i] is x's first hop toward (u, v) — the changed edge then
	// falls on the far side of the cut. So for every node x, the one
	// view pointing toward the edge stays valid and all others go stale.
	e.invalidateSide(u, v)
	e.invalidateSide(v, u)
}

// InvalidateNode marks stale exactly the directed CLVs whose view
// contains node v: all three of v's own and, at every other node of
// v's component, every view except the one looking toward v. It is the
// invalidation of the lazy-SPR edits, called on the attachment node
// after tree.DanglingPrune (together with InvalidateEdge on the healed
// edge), Plug and PlugBack: those edits change nothing but the edges at
// the attachment node, and Disconnect/Connect keep every other node's
// slot order, so all remaining views — a third of the main tree's and
// every inward view of the pruned subtree — stay bound to their tiles
// and valid. The model epoch does not move.
func (e *Engine) InvalidateNode(v int) {
	if e.coarse {
		e.InvalidateAll()
		return
	}
	for slot, nb := range e.tree.Nodes[v].Neighbors {
		e.valid[v*3+slot] = false
		if nb >= 0 {
			e.invalidateSide(nb, v)
		}
	}
}

// invalidateSide walks the component on `from`'s side of edge
// (from, acrossTo), marking stale every view that contains the edge.
// The walk stops at a view that is stale already: queueTraversal marks a
// view valid only after both its inputs, and every view beyond one
// containing the edge takes it as an input (directly or through views
// between), so all of them are stale too. Only at the nodes an edit
// rewired can a flag of the old topology sit beyond a stale view; the
// edit's own InvalidateNode marks those, so an edit's invalidations
// together mark what walks over the whole side would
// (TestInvalidationWalkStopsAtStaleViews).
func (e *Engine) invalidateSide(from, acrossTo int) {
	// Each stack entry is (node, parent), parent being the node's first
	// hop toward the changed edge.
	st := append(e.walkStack[:0], [2]int{from, acrossTo})
	for len(st) > 0 {
		node, parent := st[len(st)-1][0], st[len(st)-1][1]
		st = st[:len(st)-1]
		for slot, nb := range e.tree.Nodes[node].Neighbors {
			// clv(node, slot→parent) cuts the edge toward the change, so
			// its view excludes it and stays valid; every other view from
			// this node contains the changed edge.
			if nb < 0 || nb == parent || !e.valid[node*3+slot] {
				continue
			}
			e.valid[node*3+slot] = false
			st = append(st, [2]int{nb, node})
		}
	}
	e.walkStack = st
}

// installRates makes rc the partition's rate treatment. It is the only
// writer of *ps.rates — construction, the per-site rate optimizer and
// the wire model sync all come through here — and rejects a CAT
// assignment that does not cover the partition's patterns or names a
// category outside [0, rc.NumCats()): the scalar kernels would panic on
// such an index and the assembly kernels read past their matrix block.
// The treatment's pointer identity is kept (external holders keep seeing
// the engine's treatments); rc's slices are adopted, not copied. On an
// error nothing is installed.
func (ps *partState) installRates(rc gtr.RateCategories) error {
	top := 0
	if rc.IsCAT() {
		if n := ps.hi - ps.lo; len(rc.PatternCategory) != n {
			return fmt.Errorf("likelihood: partition %q: CAT assignment covers %d patterns, want %d",
				ps.name, len(rc.PatternCategory), n)
		}
		for k, c := range rc.PatternCategory {
			if c < 0 || c >= len(rc.Rates) {
				return fmt.Errorf("likelihood: partition %q: pattern %d is assigned category %d of %d",
					ps.name, k, c, len(rc.Rates))
			}
			top = max(top, c)
		}
	}
	*ps.rates = rc
	ps.maxCat = top
	ps.bindCats()
	return nil
}

// ensureP recomputes the per-partition matrix-scratch offsets (pOff:
// the prefix sums of the per-partition category counts, which CAT
// re-clustering can change) and sizes the per-category transition-
// matrix scratch buffers to the new total.
func (e *Engine) ensureP() {
	total := 0
	for i := range e.parts {
		e.parts[i].pOff = total
		total += e.parts[i].rates.NumCats()
	}
	e.totalCats = total
	if cap(e.pEval) < total {
		e.pPend = make([][16]float64, total)
		e.pEval = make([][16]float64, total)
		e.pD1 = make([][16]float64, total)
		e.pD2 = make([][16]float64, total)
		return
	}
	e.pPend = e.pPend[:total]
	e.pEval = e.pEval[:total]
	e.pD1 = e.pD1[:total]
	e.pD2 = e.pD2[:total]
}

// chunkOf intersects a worker's pattern range — cut on the alignment
// axis — with partition pi's span and returns the live patterns of the
// intersection as a tile-axis window [lo, hi); ok is false when there are
// none. Kernels iterate partitions with this to process one homogeneous
// (single-model) chunk at a time.
func (e *Engine) chunkOf(pi int, r threads.Range) (ps *partState, lo, hi int, ok bool) {
	lo, hi = e.tileSpan(r)
	return e.tileChunk(pi, lo, hi)
}

// tileChunk intersects the tile-axis window [lo, hi) with partition pi's
// tile span.
func (e *Engine) tileChunk(pi, lo, hi int) (ps *partState, clo, chi int, ok bool) {
	ps = &e.parts[pi]
	clo, chi = max(lo, ps.tlo), min(hi, ps.thi)
	return ps, clo, chi, clo < chi
}

// LogLikelihood computes the log-likelihood of the attached tree,
// refreshing any stale CLVs. The virtual root is the edge incident to
// taxon 0 — the same likelihood is obtained at any edge (a property the
// tests verify).
func (e *Engine) LogLikelihood() float64 {
	if e.tree == nil {
		panic("likelihood: LogLikelihood before AttachTree")
	}
	a := 0
	b := e.tree.Nodes[0].Neighbors[0]
	return e.EvaluateEdge(a, b)
}

// EvaluateEdge computes the log-likelihood across edge (a, b): it
// builds one traversal descriptor covering every stale CLV on both
// sides, then posts a single JobEvaluate that walks the descriptor and
// reduces the log-likelihood — exactly one pool dispatch (one barrier
// crossing) regardless of how much of the tree went stale and of how
// many partitions the alignment has.
func (e *Engine) EvaluateEdge(a, b int) float64 {
	slotA := e.slotOf(a, b)
	slotB := e.slotOf(b, a)
	e.beginTraversal()
	e.queueTraversal(a, slotA)
	e.queueTraversal(b, slotB)
	e.prepareTraversal()
	e.setEdgeJob(a, slotA, b, slotB, e.tree.EdgeLength(a, b))
	e.evalCount++
	e.dispatch(threads.JobEvaluate)
	return e.pool.SumSlots(0)
}

// setEdgeJob publishes the two endpoint views of an edge job (evaluate,
// makenewz, site-LL) and its branch length.
func (e *Engine) setEdgeJob(a, slotA, b, slotB int, t float64) {
	e.jobWire[0] = e.wireViewOf(a, slotA)
	e.jobWire[1] = e.wireViewOf(b, slotB)
	e.jobT = t
}

// fillEvalP fills pEval with the matrices at the job's branch length:
// the prep of the evaluate and site-LL jobs.
func (e *Engine) fillEvalP() {
	e.ensureP()
	e.fillP(e.jobT, e.pEval)
}

// PartitionLogLikelihoods returns the per-partition log-likelihood
// components of the attached tree (their sum is LogLikelihood). The
// evaluate kernel writes one partial per (worker, partition) into the
// pool's wide reduction slots, so the whole call is ONE JobEvaluate
// dispatch — no follow-up per-pattern site-likelihood pass.
func (e *Engine) PartitionLogLikelihoods(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(e.parts))
	}
	if len(dst) != len(e.parts) {
		panic(fmt.Sprintf("likelihood: destination has %d entries, want %d partitions", len(dst), len(e.parts)))
	}
	// Every JobEvaluate populates the wide slots; reuse the standard
	// evaluation path rather than restating it.
	e.LogLikelihood()
	for i := range e.parts {
		dst[i] = e.pool.SumWide(i)
	}
	return dst
}

// slotOf returns the neighbor slot of `of` pointing at `at`.
func (e *Engine) slotOf(of, at int) int {
	for i, v := range e.tree.Nodes[of].Neighbors {
		if v == at {
			return i
		}
	}
	panic(fmt.Sprintf("likelihood: nodes %d and %d not adjacent", of, at))
}

// DispatchCount returns the number of jobs the engine's pool has posted
// so far, each at most one barrier crossing. Exposed so callers can
// account for synchronization overhead per search stage.
func (e *Engine) DispatchCount() int64 { return e.pool.Dispatches() }
