package finegrain

import (
	"encoding/binary"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/tree"
)

// forceFrag shrinks the fragmentation thresholds so the small test
// descriptors exercise the multi-fragment scatter path, restoring the
// defaults on cleanup.
func forceFrag(t *testing.T, entries int) {
	t.Helper()
	minWas, sizeWas := fragMinEntries, fragEntries
	fragMinEntries, fragEntries = entries, entries
	t.Cleanup(func() { fragMinEntries, fragEntries = minWas, sizeWas })
}

// severTransport wraps the master endpoint and, once armed, fails every
// frame touching one rank the way a cut link fails: Send and Recv both
// return a typed RankDeadError.
type severTransport struct {
	fabric.Transport
	dead    int
	severed atomic.Bool

	recvs     [3]atomic.Int64 // Recv calls per rank, failed ones included
	deadSends atomic.Int64    // Send calls that hit the severed link
}

func (s *severTransport) Send(to int, tag byte, payload []byte) error {
	if to == s.dead && s.severed.Load() {
		s.deadSends.Add(1)
		return &fabric.RankDeadError{Rank: to, Err: errors.New("link severed")}
	}
	return s.Transport.Send(to, tag, payload)
}

func (s *severTransport) Recv(from int) (byte, []byte, error) {
	s.recvs[from].Add(1)
	if from == s.dead && s.severed.Load() {
		return 0, nil, &fabric.RankDeadError{Rank: from, Err: errors.New("link severed")}
	}
	return s.Transport.Recv(from)
}

// TestSeveredLinkSurfacesRankDead cuts one rank's link between two
// dispatches and checks the next Post panics with a wrapped
// fabric.RankDeadError — after receiving from every rank, the severed
// one included, so the healthy rank and the pool remain releasable. This
// is the failure shape the grid supervisor recovers from (re-stripe over
// survivors).
func TestSeveredLinkSurfacesRankDead(t *testing.T) {
	forceFrag(t, 4) // sever must hit the fragmented scatter path too
	pat := makeData(t, 10, 600, 2, 31)
	topo := tree.Random(pat.Names, rng.New(5))

	const ranks = 3
	trs := fabric.NewChanTransports(ranks)
	served := make(chan error, ranks-1)
	for r := 1; r < ranks; r++ {
		go func(r int) { served <- ServeSessions(trs[r]) }(r)
	}
	sever := &severTransport{Transport: trs[0], dead: 2}

	set := makeSet(t, pat, true)
	pool, err := NewPool(sever, pat, set, 1)
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
	_ = eng.LogLikelihood() // healthy dispatch first

	sever.severed.Store(true)
	panicked := func() (v any) {
		defer func() { v = recover() }()
		eng.InvalidateAll()
		_ = eng.LogLikelihood()
		return nil
	}()
	if panicked == nil {
		t.Fatal("dispatch over a severed link did not panic")
	}
	err, ok := panicked.(error)
	if !ok {
		t.Fatalf("panic value %T is not an error", panicked)
	}
	dead := fabric.AsRankDead(err)
	if dead == nil || dead.Rank != 2 {
		t.Fatalf("panic did not wrap a RankDeadError for rank 2: %v", err)
	}

	// Rank 1 sits before the severed rank in the fold and rank 2's first
	// frame failed, so "every rank was received from" is: rank 1's
	// partial of the failed dispatch is not still queued (its Release
	// below would drain it silently and prove nothing), and the dead rank
	// was asked once per dispatch, not once per frame after the first.
	if got := sever.recvs[1].Load(); got != 2 {
		t.Errorf("rank 1 was received from %d times over two dispatches, want 2", got)
	}
	if got := sever.recvs[2].Load(); got != 2 {
		t.Errorf("severed rank 2 was received from %d times over two dispatches, want 2", got)
	}
	if got := sever.deadSends.Load(); got != 1 {
		t.Errorf("%d frames were sent to the severed rank, want 1 (the rest of the dispatch skips a failed link)", got)
	}

	// So Release must still work: the healthy rank acks, the severed one
	// is reported dead.
	deadRanks := pool.Release()
	if len(deadRanks) != 1 || deadRanks[0] != 2 {
		t.Fatalf("Release reported dead ranks %v, want [2]", deadRanks)
	}
	trs[0].Close()
	for r := 1; r < ranks; r++ {
		if err := <-served; err != nil {
			t.Errorf("worker exit: %v", err)
		}
	}
}

// TestPostAllocationFree pins the zero-alloc dispatch hot path: after
// warm-up, a steady-state evaluation dispatch over the chan transport —
// encode, scatter, local stripe, fold, decode — performs no per-Post
// heap allocations on the master. (AllocsPerRun counts process-wide
// mallocs, so the worker goroutine's loop has to be clean too.)
func TestPostAllocationFree(t *testing.T) {
	pat := makeData(t, 12, 600, 1, 17)
	topo := tree.Random(pat.Names, rng.New(3))

	trs := fabric.NewChanTransports(2)
	served := make(chan error, 1)
	go func() { served <- ServeSessions(trs[1]) }()

	set := makeSet(t, pat, true)
	pool, err := NewPool(trs[0], pat, set, 1)
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
	_ = eng.LogLikelihood()
	e := topo.Edges()[0]
	for i := 0; i < 32; i++ { // warm free lists, slabs and delta caches
		_ = eng.EvaluateEdge(e.A, e.B)
	}
	if avg := testing.AllocsPerRun(100, func() {
		_ = eng.EvaluateEdge(e.A, e.B)
	}); avg != 0 {
		t.Errorf("steady-state EvaluateEdge dispatch allocates %.1f times per Post, want 0", avg)
	}

	// The insertion scan on warm views, batched and through the
	// one-candidate wrapper: frame, candidate block, wide partial and
	// fold all reuse their slabs too.
	p, cands := pruneForScan(t, topo)
	scores := make([]float64, len(cands))
	for i := 0; i < 8; i++ {
		eng.EvaluateInsertions(p.Root, p.Attach, cands, scores)
		_ = eng.EvaluateInsertion(p.Root, p.Attach, cands[0].A, cands[0].B)
	}
	if avg := testing.AllocsPerRun(100, func() {
		eng.EvaluateInsertions(p.Root, p.Attach, cands, scores)
	}); avg != 0 {
		t.Errorf("steady-state batched scan of %d candidates allocates %.1f times per Post, want 0", len(cands), avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		_ = eng.EvaluateInsertion(p.Root, p.Attach, cands[0].A, cands[0].B)
	}); avg != 0 {
		t.Errorf("steady-state one-candidate scan allocates %.1f times per Post, want 0", avg)
	}
	pool.Close()
	trs[0].Close()
	if err := <-served; err != nil {
		t.Errorf("worker exit: %v", err)
	}
}

// abortStorm hammers the engine with full relikelihoods while a second
// goroutine keeps aborting whatever job is in flight, then checks an
// undisturbed evaluation still matches the reference — i.e. an abort
// that lands mid-scatter (fragmentation is forced down so every
// dispatch is multi-frame) still collects every rank's partial and
// rolls the descriptor back without poisoning the delta caches.
func abortStorm(t *testing.T, pool *Pool, eng *likelihood.Engine, want float64) {
	t.Helper()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				pool.AbortJob()
			}
		}
	}()
	for i := 0; i < 30; i++ {
		eng.InvalidateAll()
		_ = eng.LogLikelihood() // result may be garbage; state must not be
	}
	close(stop)
	<-done

	if got := eng.LogLikelihood(); relDiff(got, want) > 1e-10 {
		t.Errorf("after abort storm: distributed %.12f vs reference %.12f", got, want)
	}
}

// TestAbortMidScatterChan runs the abort storm over the in-proc chan
// transport.
func TestAbortMidScatterChan(t *testing.T) {
	forceFrag(t, 4)
	pat := makeData(t, 12, 900, 2, 23)
	topo := tree.Random(pat.Names, rng.New(11))
	ref := refEngine(t, pat, true)
	if err := ref.AttachTree(topo.Clone()); err != nil {
		t.Fatal(err)
	}
	want := ref.LogLikelihood()

	err := Run(3, 2, pat, makeSet(t, pat, true), func(eng *likelihood.Engine, pool *Pool) error {
		if err := eng.AttachTree(topo.Clone()); err != nil {
			return err
		}
		abortStorm(t, pool, eng, want)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAbortMidScatterTCP runs the abort storm over the real TCP
// transport.
func TestAbortMidScatterTCP(t *testing.T) {
	forceFrag(t, 4)
	pat := makeData(t, 10, 600, 2, 29)
	topo := tree.Random(pat.Names, rng.New(13))
	ref := refEngine(t, pat, true)
	if err := ref.AttachTree(topo.Clone()); err != nil {
		t.Fatal(err)
	}
	want := ref.LogLikelihood()

	eng, pool, stop := tcpGrid(t, 3, 1, pat, true)
	defer stop()
	if err := eng.AttachTree(topo.Clone()); err != nil {
		t.Fatal(err)
	}
	abortStorm(t, pool, eng, want)
}

// TestFragmentedDeltaWireTraffic pins the two wire optimizations
// working together: with fragmentation forced on, a first full-tree
// dispatch ships every descriptor entry in full, and an immediately
// repeated traversal of the same topology ships the same entries as
// 9-byte delta refs — the second dispatch's bytes must come in well
// under the first's — while both reproduce the reference likelihood to
// 1e-10.
func TestFragmentedDeltaWireTraffic(t *testing.T) {
	forceFrag(t, 4)
	pat := makeData(t, 12, 900, 2, 41)
	topo := tree.Random(pat.Names, rng.New(19))
	ref := refEngine(t, pat, false)
	if err := ref.AttachTree(topo.Clone()); err != nil {
		t.Fatal(err)
	}
	want := ref.LogLikelihood()

	err := Run(2, 2, pat, makeSet(t, pat, false), func(eng *likelihood.Engine, pool *Pool) error {
		if err := eng.AttachTree(topo.Clone()); err != nil {
			return err
		}
		_ = eng.LogLikelihood() // ships the model block once
		st := pool.Transport().Stats()

		// Re-attaching the same topology bumps the topo epoch: the reset
		// clears both delta caches, so the full traversal re-ships every
		// entry in 49-byte full form (no model block — the model epoch
		// did not move). This is the fair baseline for the ref dispatch.
		if err := eng.AttachTree(topo.Clone()); err != nil {
			return err
		}
		by0 := st.BytesSent.Load()
		if got := eng.LogLikelihood(); relDiff(got, want) > 1e-10 {
			t.Errorf("fragmented full ship: %.12f vs reference %.12f", got, want)
		}
		full := st.BytesSent.Load() - by0

		// A branch-length-style invalidation staleness with unchanged
		// entries: the same traversal re-ships as 9-byte refs.
		e := topo.Edges()[0]
		eng.InvalidateEdge(e.A, e.B)
		by1 := st.BytesSent.Load()
		if got := eng.LogLikelihood(); relDiff(got, want) > 1e-10 {
			t.Errorf("delta re-ship: %.12f vs reference %.12f", got, want)
		}
		delta := st.BytesSent.Load() - by1

		if full == 0 || delta == 0 {
			t.Fatalf("no traffic recorded: full=%d delta=%d", full, delta)
		}
		if delta*2 >= full {
			t.Errorf("delta re-ship cost %d bytes vs %d full — refs are not shrinking the frames", delta, full)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPDispatchLatencySmoke is the CI smoke bound on TCP dispatch
// latency: a steady-state evaluation dispatch over the loopback — two
// frames on the wire, kernel, fold — must come back in well under a
// millisecond budget. The bound is deliberately loose (50x a typical
// loopback round trip) so only gross pipeline regressions trip it.
func TestTCPDispatchLatencySmoke(t *testing.T) {
	pat := makeData(t, 10, 600, 1, 47)
	topo := tree.Random(pat.Names, rng.New(23))

	eng, _, stop := tcpGrid(t, 2, 1, pat, true)
	defer stop()
	if err := eng.AttachTree(topo); err != nil {
		t.Fatal(err)
	}
	_ = eng.LogLikelihood()
	e := topo.Edges()[0]
	for i := 0; i < 16; i++ {
		_ = eng.EvaluateEdge(e.A, e.B) // warm sockets, buffers, caches
	}

	const rounds = 200
	start := time.Now()
	for i := 0; i < rounds; i++ {
		_ = eng.EvaluateEdge(e.A, e.B)
	}
	per := time.Since(start) / rounds
	if per > 5*time.Millisecond {
		t.Errorf("TCP dispatch latency %v/op exceeds the 5ms smoke bound", per)
	}
	t.Logf("TCP steady-state dispatch: %v/op", per)
}

// pruneForScan prunes the first subtree of topo with at least eight
// regraft candidates within radius 6, leaving it dangling, and returns
// it with those candidates.
func pruneForScan(t *testing.T, topo *tree.Tree) (*tree.PrunedSubtree, []tree.Edge) {
	t.Helper()
	for _, edge := range topo.Edges() {
		for _, dir := range [][2]int{{edge.A, edge.B}, {edge.B, edge.A}} {
			if topo.Nodes[dir[1]].IsTip() {
				continue
			}
			p, err := topo.DanglingPrune(dir[0], dir[1])
			if err != nil {
				continue
			}
			if cands := topo.RegraftCandidates(p, 6); len(cands) >= 8 {
				return p, cands
			}
			topo.PlugBack(p)
		}
	}
	t.Fatal("no subtree with eight regraft candidates")
	return nil, nil
}

// tcpGrid builds a master pool and engine over `ranks` loopback TCP
// ranks served by in-process workers; stop shuts the grid down and
// reports worker failures.
func tcpGrid(t testing.TB, ranks, threadsPerRank int, pat *msa.Patterns, cat bool) (eng *likelihood.Engine, pool *Pool, stop func()) {
	t.Helper()
	master, err := fabric.ListenTCP("127.0.0.1:0", ranks)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, ranks-1)
	for r := 1; r < ranks; r++ {
		go func(r int) {
			wt, err := fabric.DialTCP(master.Addr(), r, ranks)
			if err != nil {
				served <- err
				return
			}
			defer wt.Close()
			served <- Serve(wt)
		}(r)
	}
	if err := master.Accept(); err != nil {
		t.Fatal(err)
	}
	set := makeSet(t, pat, cat)
	if pool, err = NewPool(master, pat, set, threadsPerRank); err != nil {
		t.Fatal(err)
	}
	if eng, err = likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	return eng, pool, func() {
		pool.Close()
		for r := 1; r < ranks; r++ {
			if err := <-served; err != nil {
				t.Errorf("worker exit: %v", err)
			}
		}
		master.Close()
	}
}

// scanOnce drives one cold batched scan on a distributed engine and
// checks its cost at the transport counters — one dispatch, one
// broadcast, one reduction, `frames` frames per remote rank, no model
// block — and its bits: every score equals the warm one-candidate call
// on the same engine and grid.
func scanOnce(t *testing.T, eng *likelihood.Engine, pool *Pool, topo *tree.Tree, frames func(entries int) int64) {
	t.Helper()
	if err := eng.AttachTree(topo); err != nil {
		t.Fatal(err)
	}
	_ = eng.LogLikelihood() // ships the model block and the tile reset
	p, cands := pruneForScan(t, topo)
	eng.InvalidateEdge(p.OrigA, p.OrigB)
	eng.InvalidateNode(p.Attach)

	st := pool.Transport().Stats()
	d0, b0, r0, m0 := eng.DispatchCount(), st.Broadcasts.Load(), st.Reductions.Load(), st.MessagesSent.Load()
	blocks0 := eng.ModelBlocksEncoded()
	got := eng.EvaluateInsertions(p.Root, p.Attach, cands, nil)
	entries := len(eng.LastTraversal())
	if entries == 0 {
		t.Fatal("the scan after a prune queued no view")
	}
	if d, b, r := eng.DispatchCount()-d0, st.Broadcasts.Load()-b0, st.Reductions.Load()-r0; d != 1 || b != 1 || r != 1 {
		t.Errorf("%d candidates, %d stale views: %d dispatches, %d broadcasts, %d reductions, want 1 each", len(cands), entries, d, b, r)
	}
	if m, want := st.MessagesSent.Load()-m0, frames(entries)*int64(pool.Transport().Size()-1); m != want {
		t.Errorf("scan over a %d-entry descriptor sent %d frames, want %d", entries, m, want)
	}
	if n := eng.ModelBlocksEncoded() - blocks0; n != 0 {
		t.Errorf("scan shipped %d model blocks, want 0", n)
	}
	for i, c := range cands {
		want := eng.EvaluateInsertion(p.Root, p.Attach, c.A, c.B)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("candidate %d (%d,%d): batched %.17g vs one-candidate call %.17g", i, c.A, c.B, got[i], want)
		}
	}
}

// TestScanIsOneDispatch is the distributed half of the likelihood test
// of the same name: over 2 ranks a prune's whole candidate batch, stale
// views included, is one frame out and one partial of N wide values
// back per rank.
func TestScanIsOneDispatch(t *testing.T) {
	pat := makeData(t, 16, 600, 2, 61)
	topo := tree.Random(pat.Names, rng.New(62))
	err := Run(2, 2, pat, makeSet(t, pat, true), func(eng *likelihood.Engine, pool *Pool) error {
		scanOnce(t, eng, pool, topo, func(int) int64 { return 1 })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScanFragmented forces the union descriptor of a batched scan over
// the fragmentation threshold, on both transports: the header fragment
// carries the candidate block, the entry fragments follow, and it is
// still one broadcast, one reduction and the same bits.
func TestScanFragmented(t *testing.T) {
	forceFrag(t, 4)
	pat := makeData(t, 16, 600, 2, 67)
	fragmented := func(entries int) int64 {
		if entries < fragMinEntries {
			t.Fatalf("%d-entry descriptor is under the forced threshold %d", entries, fragMinEntries)
		}
		return 1 + int64((entries+fragEntries-1)/fragEntries)
	}
	t.Run("chan", func(t *testing.T) {
		topo := tree.Random(pat.Names, rng.New(68))
		err := Run(2, 1, pat, makeSet(t, pat, false), func(eng *likelihood.Engine, pool *Pool) error {
			scanOnce(t, eng, pool, topo, fragmented)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		eng, pool, stop := tcpGrid(t, 3, 2, pat, true)
		defer stop()
		scanOnce(t, eng, pool, tree.Random(pat.Names, rng.New(69)), fragmented)
	})
}

// shortWideTransport wraps the master endpoint and, once armed, drops
// the last wide component from every reduction partial it receives —
// the shape of a partial answering some other job.
type shortWideTransport struct {
	fabric.Transport
	armed atomic.Bool
}

func (s *shortWideTransport) Recv(from int) (byte, []byte, error) {
	tag, payload, err := s.Transport.Recv(from)
	if err == nil && tag == TagPartial && s.armed.Load() {
		if nw := binary.LittleEndian.Uint32(payload[16:]); nw > 0 {
			cut := 20 + 8*int(nw-1)
			short := append([]byte(nil), payload[:cut]...)
			binary.LittleEndian.PutUint32(short[16:], nw-1)
			payload = append(short, payload[cut+8:]...)
		}
	}
	return tag, payload, err
}

// TestShortWidePartialSurfacesRankDead: a partial whose wide components
// do not number what the job expects — one per partition for an
// evaluation, one per candidate for a scan — must fail the dispatch as a
// desynchronized rank, not fold with that rank's stripe silently
// missing from a score.
func TestShortWidePartialSurfacesRankDead(t *testing.T) {
	pat := makeData(t, 16, 600, 2, 71)
	topo := tree.Random(pat.Names, rng.New(72))
	trs := fabric.NewChanTransports(2)
	served := make(chan error, 1)
	go func() { served <- ServeSessions(trs[1]) }()
	short := &shortWideTransport{Transport: trs[0]}

	set := makeSet(t, pat, true)
	pool, err := NewPool(short, pat, set, 1)
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
	_ = eng.LogLikelihood()
	p, cands := pruneForScan(t, topo)
	eng.InvalidateNode(p.Attach)
	_ = eng.EvaluateInsertions(p.Root, p.Attach, cands, nil) // healthy scan first

	short.armed.Store(true)
	for name, job := range map[string]func(){
		"evaluate": func() { _ = eng.EvaluateEdge(cands[0].A, cands[0].B) },
		"scan":     func() { _ = eng.EvaluateInsertions(p.Root, p.Attach, cands, nil) },
	} {
		panicked := func() (v any) {
			defer func() { v = recover() }()
			job()
			return nil
		}()
		err, ok := panicked.(error)
		if !ok {
			t.Fatalf("%s over a short wide partial: panic value %v, want an error", name, panicked)
		}
		if dead := fabric.AsRankDead(err); dead == nil || dead.Rank != 1 {
			t.Fatalf("%s over a short wide partial did not surface rank 1 as dead: %v", name, err)
		}
	}
	short.armed.Store(false)
	if dead := pool.Release(); len(dead) != 0 {
		t.Fatalf("Release reported dead ranks %v on a healthy link", dead)
	}
	if err := trs[0].Send(1, TagShutdown, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Errorf("worker exit: %v", err)
	}
	trs[0].Close()
}

// badCategoryTransport wraps the master endpoint and, once armed,
// rewrites the last pattern's rate category in every model-sync block
// it sends to a value the shipped category rates do not have — a bit
// flip past the CRC, or a frame from some other stream.
type badCategoryTransport struct {
	fabric.Transport
	offset   int   // byte offset of that category in a job frame
	category int32 // what to put there
	armed    atomic.Bool
}

func (b *badCategoryTransport) Send(to int, tag byte, payload []byte) error {
	const modelFlag = 1 // likelihood's jobFlagModel
	if b.armed.Load() && (tag == TagJob || tag == TagJobFrag) && len(payload) > b.offset+4 && payload[1]&modelFlag != 0 {
		payload = append([]byte(nil), payload...)
		binary.LittleEndian.PutUint32(payload[b.offset:], uint32(b.category))
	}
	return b.Transport.Send(to, tag, payload)
}

// TestBadCategoryOnWireSurfacesRankDead: a model block whose CAT
// assignment names a category outside the shipped rates must not reach
// a kernel — the scalar ones would panic on the index, the assembly read
// past its matrix block. The worker refuses the block as a desync and
// dies; the master sees a dead rank (restripe), not a job-level error
// it would replay on the next lease.
func TestBadCategoryOnWireSurfacesRankDead(t *testing.T) {
	pat := makeData(t, 12, 400, 1, 81)
	topo := tree.Random(pat.Names, rng.New(82))
	n := pat.NumPatterns()
	for name, category := range map[string]int32{"out of range": 1, "negative": -1} {
		t.Run(name, func(t *testing.T) {
			// Over TCP: a rank that closes its link is one dead rank there,
			// where closing a chan endpoint tears the whole world down.
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
			// Frame layout up to the last category (the master keeps the
			// first stripe, the worker the last): code, flags, node
			// capacity; the weights; CAT flag and partition count; the
			// partition's ten model parameters, its one category rate, no
			// probabilities; the assignment's length and n-1 categories.
			bad := &badCategoryTransport{
				Transport: master, category: category,
				offset: 6 + (4 + 4*n) + 1 + 4 + 10*8 + (4 + 8) + 4 + 4 + 4*(n-1),
			}
			set := makeSet(t, pat, true)
			pool, err := NewPool(bad, pat, set, 1)
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
			want := eng.LogLikelihood() // a sound model block first
			eng.InvalidateAll()         // the next job ships the model again
			bad.armed.Store(true)
			panicked := func() (v any) {
				defer func() { v = recover() }()
				_ = eng.LogLikelihood()
				return nil
			}()
			err, ok := panicked.(error)
			if !ok {
				t.Fatalf("likelihood over a mangled model block: panic value %v, want an error (sound value was %g)", panicked, want)
			}
			if dead := fabric.AsRankDead(err); dead == nil || dead.Rank != 1 {
				t.Fatalf("mangled model block did not surface rank 1 as dead: %v", err)
			}
			if err := <-served; !errors.Is(err, likelihood.ErrWireDesync) {
				t.Errorf("worker exit: %v, want a wire desync", err)
			}
			pool.Close()
		})
	}
}
