package finegrain

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"raxml/internal/fabric"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/tree"
)

// forceGather pins "who sums the Newton derivatives" for every pool the
// test builds afterwards — on: the remote sumtable rows ride home on the
// setup partial whatever their size; off: they never do and every
// iteration is a distributed core job — restoring the measured limit on
// cleanup.
func forceGather(t testing.TB, on bool) {
	t.Helper()
	was := SumtableGatherLimit
	SumtableGatherLimit = 0
	if on {
		SumtableGatherLimit = math.MaxInt
	}
	t.Cleanup(func() { SumtableGatherLimit = was })
}

// branchProgram runs the three makenewz entry points on eng over a copy
// of topo — one OptimizeBranch, one OptimizeJunction, one
// OptimizeAllBranches sweep — and returns everything they produced that
// a later likelihood is a function of: the optimized length the first
// call returned, the sweep's log-likelihood, and every branch length of
// the tree afterwards, in edge order.
func branchProgram(eng *likelihood.Engine, topo *tree.Tree) (first, lnL float64, lengths []float64, err error) {
	tr := topo.Clone()
	if err = eng.AttachTree(tr); err != nil {
		return
	}
	a := 0
	b := tr.Nodes[a].Neighbors[0]
	first = eng.OptimizeBranch(a, b)
	eng.OptimizeJunction(b)
	lnL = eng.OptimizeAllBranches(1, 1e-3)
	for _, e := range tr.Edges() {
		lengths = append(lengths, tr.EdgeLength(e.A, e.B))
	}
	return
}

// digest folds a sequence of float64 into one word, bit patterns not
// values (FNV-1a over the little-endian bytes).
func digest(vs ...float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vs {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h = (h ^ (b >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	return h
}

// distributedCoreBits are the digests of branchProgram's results on the
// forced-distributed side: first length, sweep lnL, then every branch
// length. A distributed derivative is a sum of per-stripe sums, so its
// bits belong to the stripe boundaries, and the table has been recorded
// twice with this very program: at commit fd15c0f, the parent of the
// change that introduced the gather (the distributed core job was the
// only path, stripes were cut by site weight), and again when NewPool
// began cutting stripes by pattern count — with the dispatch itself
// rewritten in the same change but run first against the old table,
// which it passed, so the cut is all that moved. Ten entries changed;
// the two three-partition R=3 rows did not, because both cuts snap onto
// the gene starts there. Every kernel on the path is pinned
// bit-identical across the scalar and AVX2 sets, so one table serves
// both; it is compared on amd64 only, where it was recorded — other
// ports may fuse a multiply-add the pinned kernels keep apart.
var distributedCoreBits = map[string]uint64{
	"CAT/R=2/T=1":               0x5cf1781551c2c67d,
	"CAT/R=2/T=2":               0x58be5b6d327f535f,
	"CAT/R=3/T=1":               0x4975f2348fabfad4,
	"CAT/R=3/T=2":               0xf0b13d8579cfb2a7,
	"GAMMA/R=2/T=1":             0x828ad6dc73f2e298,
	"GAMMA/R=2/T=2":             0x6278589202546848,
	"GAMMA/R=3/T=1":             0x6aa4ee601306f865,
	"GAMMA/R=3/T=2":             0x34d7e33b5f29b294,
	"CAT, 3 partitions/R=2/T=1": 0x9550634164887c76,
	"CAT, 3 partitions/R=2/T=2": 0xd1de4b8fa3db695d,
	"CAT, 3 partitions/R=3/T=1": 0x18c666d94c4dcc5b,
	"CAT, 3 partitions/R=3/T=2": 0xdbb31c7e33d812f9,
}

// TestBranchLengthsAcrossGrids is the tentpole's bit contract, all ==.
//
// Gathered: the rows of every remote stripe land in the master's arena
// and each derivative is ONE pattern-ordered sum over the whole axis, so
// OptimizeBranch, OptimizeJunction and an OptimizeAllBranches sweep leave
// exactly the branch lengths a one-process, one-worker engine leaves —
// for every R × T, CAT and GAMMA, and a three-partition alignment whose
// partition starts fall strictly inside remote stripes (the rows then
// land in two arena segments with padding between). The sweep's
// log-likelihood is not in that comparison: an evaluation is still
// reduced per stripe.
//
// Forced distributed: the core job runs exactly as before the gather
// existed, and every bit — lengths and likelihood — is the recorded
// one (distributedCoreBits).
func TestBranchLengthsAcrossGrids(t *testing.T) {
	cases := []struct {
		name  string
		genes int
		cat   bool
	}{
		{"CAT", 1, true},
		{"GAMMA", 1, false},
		{"CAT, 3 partitions", 3, true},
	}
	for _, tc := range cases {
		pat := makeData(t, 12, 900, tc.genes, 7)
		topo := tree.Random(pat.Names, rng.New(99))
		wantFirst, _, wantLengths, err := branchProgram(refEngine(t, pat, tc.cat), topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{2, 3} {
			for _, threadsPerRank := range []int{1, 2} {
				name := fmt.Sprintf("%s/R=%d/T=%d", tc.name, ranks, threadsPerRank)
				t.Run(name+"/gathered", func(t *testing.T) {
					forceGather(t, true)
					err := Run(ranks, threadsPerRank, pat, makeSet(t, pat, tc.cat), func(eng *likelihood.Engine, pool *Pool) error {
						if !pool.GathersSumtable() {
							t.Fatal("pool does not gather under a forced limit")
						}
						// Three even genes over two ranks: the one remote stripe
						// holds a partition start. (Over three ranks the cut
						// snaps onto the gene boundaries themselves.)
						if tc.genes > 1 && ranks == 2 && !stripeSpansPartitionStart(pool, pat) {
							t.Fatal("no partition start falls strictly inside the remote stripe: the case does not test the split landing")
						}
						first, _, lengths, err := branchProgram(eng, topo)
						if err != nil {
							return err
						}
						if math.Float64bits(first) != math.Float64bits(wantFirst) {
							t.Errorf("OptimizeBranch returned %.17g, one process returns %.17g", first, wantFirst)
						}
						for i := range lengths {
							if math.Float64bits(lengths[i]) != math.Float64bits(wantLengths[i]) {
								t.Fatalf("branch %d: %.17g on the grid, %.17g in one process", i, lengths[i], wantLengths[i])
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
				t.Run(name+"/distributed", func(t *testing.T) {
					forceGather(t, false)
					err := Run(ranks, threadsPerRank, pat, makeSet(t, pat, tc.cat), func(eng *likelihood.Engine, pool *Pool) error {
						if pool.GathersSumtable() {
							t.Fatal("pool gathers under a zero limit")
						}
						first, lnL, lengths, err := branchProgram(eng, topo)
						if err != nil {
							return err
						}
						got := digest(append([]float64{first, lnL}, lengths...)...)
						if want := distributedCoreBits[name]; runtime.GOARCH == "amd64" && got != want {
							t.Errorf("distributed core digest %#016x, the recorded one is %#016x", got, want)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// stripeSpansPartitionStart reports whether some partition of pat
// starts strictly inside one of pool's remote stripes.
func stripeSpansPartitionStart(pool *Pool, pat *msa.Patterns) bool {
	for _, s := range pool.Stripes()[1:] {
		for _, start := range pat.PartStarts() {
			if s.Lo < start && start < s.Hi {
				return true
			}
		}
	}
	return false
}

// TestGatherDecidedByRemoteBytes pins the decision rule at its edges:
// remote sumtable bytes = (patterns − stripe 0) × CLV categories × 32
// against the limit, inclusive; a single-rank pool never gathers (it
// has no wire, and its local crew keeps reducing in parallel).
func TestGatherDecidedByRemoteBytes(t *testing.T) {
	pat := makeData(t, 8, 400, 1, 5)
	was := SumtableGatherLimit
	defer func() { SumtableGatherLimit = was }()
	for _, cat := range []bool{true, false} {
		var remote int
		gathers := func(ranks int) (g bool) {
			err := Run(ranks, 1, pat, makeSet(t, pat, cat), func(_ *likelihood.Engine, pool *Pool) error {
				cats := 4
				if cat {
					cats = 1
				}
				remote = (pat.NumPatterns() - pool.Stripes()[0].Len()) * cats * 32
				g = pool.GathersSumtable()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		SumtableGatherLimit = math.MaxInt
		if gathers(1) {
			t.Error("a single-rank pool gathers")
		}
		gathers(2) // measures remote
		SumtableGatherLimit = remote
		if !gathers(2) {
			t.Errorf("cat=%v: %d remote bytes at a limit of %d did not gather", cat, remote, remote)
		}
		SumtableGatherLimit = remote - 1
		if gathers(2) {
			t.Errorf("cat=%v: %d remote bytes above a limit of %d gathered", cat, remote, remote-1)
		}
	}
}

// rowsTransport wraps the master endpoint and, per its mode, mangles the
// per-pattern block of the reduction partials it receives while keeping
// every frame well-formed: the count and the bytes always agree, so the
// codec accepts the partial and only the dispatcher's own accounting can
// tell that the rows are not the ones it asked for.
type rowsTransport struct {
	fabric.Transport
	mode atomic.Int32
}

const (
	rowsIntact  int32 = iota
	rowsShort         // drop the last pattern's row
	rowsLong          // repeat the last pattern's row once more
	rowsNone          // answer a request for rows with an empty block
	rowsUnasked       // attach one row to a partial that should carry none
)

// rowFloats is one pattern's row in the GTRCAT tests below.
const rowFloats = 4

func (s *rowsTransport) Recv(from int) (byte, []byte, error) {
	tag, payload, err := s.Transport.Recv(from)
	mode := s.mode.Load()
	if err != nil || tag != TagPartial || mode == rowsIntact {
		return tag, payload, err
	}
	// [slots:16][nw:4][wide:8·nw][nv:4][block:8·nv]
	nw := int(binary.LittleEndian.Uint32(payload[16:]))
	at := 20 + 8*nw
	nv := int(binary.LittleEndian.Uint32(payload[at:]))
	out := append([]byte(nil), payload...)
	switch {
	case mode == rowsShort && nv > 0:
		out = out[:len(out)-8*rowFloats]
		nv -= rowFloats
	case mode == rowsLong && nv > 0:
		out = append(out, out[len(out)-8*rowFloats:]...)
		nv += rowFloats
	case mode == rowsNone && nv > 0:
		out = out[:at+4]
		nv = 0
	case mode == rowsUnasked && nv == 0:
		out = append(out, make([]byte, 8*rowFloats)...)
		nv = rowFloats
	}
	binary.LittleEndian.PutUint32(out[at:], uint32(nv))
	return tag, out, nil
}

// TestBadSumtableRowsSurfaceRankDead: over TCP, a setup partial whose
// row block is not exactly the rank's stripe — a row short, a row long,
// empty when rows were asked for — and a partial that carries rows
// nobody asked for each fail the dispatch as a dead rank (the class the
// grid restripes on), and nothing of the branch is folded: the tree
// keeps the length it had.
func TestBadSumtableRowsSurfaceRankDead(t *testing.T) {
	forceGather(t, true)
	pat := makeData(t, 12, 600, 1, 23)
	topo := tree.Random(pat.Names, rng.New(24))

	master, err := fabric.ListenTCP("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	served := make(chan error, 1)
	go func() {
		wt, err := fabric.DialTCP(master.Addr(), 1, 2)
		if err != nil {
			served <- err
			return
		}
		defer wt.Close()
		served <- Serve(wt)
	}()
	if err := master.Accept(); err != nil {
		t.Fatal(err)
	}
	rows := &rowsTransport{Transport: master}
	set := makeSet(t, pat, true)
	pool, err := NewPool(rows, pat, set, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AttachTree(topo); err != nil {
		t.Fatal(err)
	}
	a := 0
	b := topo.Nodes[a].Neighbors[0]
	_ = eng.LogLikelihood()
	topo.SetEdgeLength(a, b, 0.7) // far from its optimum: a healthy call moves it
	eng.InvalidateEdge(a, b)

	for _, tc := range []struct {
		name string
		mode int32
		job  func()
	}{
		{"one row short", rowsShort, func() { eng.OptimizeBranch(a, b) }},
		{"one row long", rowsLong, func() { eng.OptimizeBranch(a, b) }},
		{"none when asked", rowsNone, func() { eng.OptimizeBranch(a, b) }},
		{"rows nobody asked for", rowsUnasked, func() { _ = eng.EvaluateEdge(a, b) }},
	} {
		rows.mode.Store(tc.mode)
		panicked := func() (v any) {
			defer func() { v = recover() }()
			tc.job()
			return nil
		}()
		rows.mode.Store(rowsIntact)
		err, ok := panicked.(error)
		if !ok {
			t.Fatalf("%s: panic value %v, want an error", tc.name, panicked)
		}
		if dead := fabric.AsRankDead(err); dead == nil || dead.Rank != 1 {
			t.Fatalf("%s did not surface rank 1 as dead: %v", tc.name, err)
		}
		if got := topo.EdgeLength(a, b); got != 0.7 {
			t.Fatalf("%s: the failed dispatch moved the branch to %v", tc.name, got)
		}
	}

	// The stream itself was never broken: the same pool optimizes the
	// branch once the partials arrive intact, then releases cleanly.
	if got := eng.OptimizeBranch(a, b); got == 0.7 {
		t.Error("a healthy OptimizeBranch left the perturbed length in place")
	}
	pool.Close()
	if err := <-served; err != nil {
		t.Errorf("worker exit: %v", err)
	}
}
