package finegrain

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// severLink wraps one master link and, once severed, fails every frame
// the way a cut link fails: Send and Recv both return a raw, untyped
// error — naming the rank is the pool's job.
type severLink struct {
	linkShim
	severed atomic.Bool

	recvs     atomic.Int64 // Recv calls, failed ones included
	deadSends atomic.Int64 // Send calls that hit the severed link
}

func (s *severLink) Send(tag byte, payload []byte) error {
	if s.severed.Load() {
		s.deadSends.Add(1)
		return errors.New("link severed")
	}
	return s.Link.Send(tag, payload)
}

func (s *severLink) Recv() (byte, []byte, error) {
	s.recvs.Add(1)
	if s.severed.Load() {
		return 0, nil, errors.New("link severed")
	}
	return s.Link.Recv()
}

// TestSeveredLinkSurfacesRankDead cuts one rank's link between two
// dispatches and checks the next Post panics with a wrapped
// fabric.RankDeadError naming that rank — after receiving from every
// rank, the severed one included, so the healthy rank and the pool
// remain releasable. This is the failure shape the grid supervisor
// recovers from (re-stripe over survivors).
func TestSeveredLinkSurfacesRankDead(t *testing.T) {
	pat := makeData(t, 10, 600, 2, 31)
	topo := tree.Random(pat.Names, rng.New(5))

	served := serveRanks(t, false, 2)
	sever := []*severLink{{linkShim: linkShim{served[0]}}, {linkShim: linkShim{served[1]}}}
	eng, pool := newPool(t, []fabric.Link{sever[0], sever[1]}, pat, makeSet(t, pat, true), 1)
	if err := eng.AttachTree(topo); err != nil {
		t.Fatal(err)
	}
	_ = eng.LogLikelihood() // healthy dispatch first

	sever[1].severed.Store(true) // rank 2
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
	if got := sever[0].recvs.Load(); got != 2 {
		t.Errorf("rank 1 was received from %d times over two dispatches, want 2", got)
	}
	if got := sever[1].recvs.Load(); got != 2 {
		t.Errorf("severed rank 2 was received from %d times over two dispatches, want 2", got)
	}
	if got := sever[1].deadSends.Load(); got != 1 {
		t.Errorf("%d frames were sent to the severed rank, want 1 (the rest of the dispatch skips a failed link)", got)
	}

	// So Release must still work: the healthy rank acks, the severed one
	// is reported dead.
	deadRanks := pool.Release()
	if len(deadRanks) != 1 || deadRanks[0] != 2 {
		t.Fatalf("Release reported dead ranks %v, want [2]", deadRanks)
	}
}

// TestPostAllocationFree pins the zero-alloc dispatch hot path: after
// warm-up, a steady-state evaluation dispatch over an in-proc link —
// encode, scatter, local stripe, fold, decode — performs no per-Post
// heap allocations on the master. (AllocsPerRun counts process-wide
// mallocs, so the worker goroutine's loop has to be clean too.)
func TestPostAllocationFree(t *testing.T) {
	pat := makeData(t, 12, 600, 1, 17)
	topo := tree.Random(pat.Names, rng.New(3))

	eng, _ := newPool(t, serveRanks(t, false, 1), pat, makeSet(t, pat, true), 1)
	if err := eng.AttachTree(topo); err != nil {
		t.Fatal(err)
	}
	_ = eng.LogLikelihood()
	e := topo.Edges()[0]
	for i := 0; i < 32; i++ { // warm free lists, slabs and the memo
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
	p, cands := pruneForScan(t, topo, 6)
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
}

// TestTCPDispatchLatencySmoke is the CI smoke bound on TCP dispatch
// latency: a steady-state evaluation dispatch over the loopback — two
// frames on the wire, kernel, fold — must come back in well under a
// millisecond budget. The bound is deliberately loose (50x a typical
// loopback round trip) so only gross pipeline regressions trip it.
func TestTCPDispatchLatencySmoke(t *testing.T) {
	pat := makeData(t, 10, 600, 1, 47)
	topo := tree.Random(pat.Names, rng.New(23))

	eng, _ := tcpGrid(t, 2, 1, pat, true)
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
// regraft candidates within radius, leaving it dangling, and returns it
// with those candidates.
func pruneForScan(t testing.TB, topo *tree.Tree, radius int) (*tree.PrunedSubtree, []tree.Edge) {
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
			if cands := topo.AppendRegraftCandidates(nil, p, radius); len(cands) >= 8 {
				return p, cands
			}
			topo.PlugBack(p)
		}
	}
	t.Fatal("no subtree with eight regraft candidates")
	return nil, nil
}

// tcpGrid builds a master pool and engine over `ranks` loopback TCP
// ranks served by in-process workers, torn down on cleanup.
func tcpGrid(t testing.TB, ranks, threadsPerRank int, pat *msa.Patterns, cat bool) (*likelihood.Engine, *Pool) {
	t.Helper()
	return newPool(t, serveRanks(t, true, ranks-1), pat, makeSet(t, pat, cat), threadsPerRank)
}

// scanOnce drives one cold batched scan of the candidates within radius
// on a distributed engine, whose descriptor must have at least minEntries
// entries, and checks its cost on the wire — one dispatch, one frame out
// and one partial back on every rank's link, no model block — and its
// bits: every score equals the warm one-candidate call on the same engine
// and grid.
func scanOnce(t *testing.T, eng *likelihood.Engine, links []*countingLink, topo *tree.Tree, radius, minEntries int) {
	t.Helper()
	if err := eng.AttachTree(topo); err != nil {
		t.Fatal(err)
	}
	_ = eng.LogLikelihood() // ships the model block and the tile reset
	p, cands := pruneForScan(t, topo, radius)
	eng.InvalidateEdge(p.OrigA, p.OrigB)
	eng.InvalidateNode(p.Attach)

	d0, c0 := eng.DispatchCount(), counts(links)
	blocks0 := eng.ModelBlocksEncoded()
	got := eng.EvaluateInsertions(p.Root, p.Attach, cands, nil)
	entries := len(eng.LastTraversal())
	if entries < minEntries {
		t.Fatalf("the scan after a prune queued %d views, want at least %d", entries, minEntries)
	}
	if d := eng.DispatchCount() - d0; d != 1 {
		t.Errorf("%d candidates, %d stale views: %d dispatches, want 1", len(cands), entries, d)
	}
	checkFrames(t, fmt.Sprintf("scan over a %d-entry descriptor", entries), links, c0, 1, 1)
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
	eng, _, links := countedGrid(t, false, 2, 2, pat, makeSet(t, pat, true))
	scanOnce(t, eng, links, topo, 6, 1)
}

// TestLongScanIsOneFrame scans every regraft candidate of a 70-taxon
// tree over the wire, a union descriptor of at least 64 entries, over
// in-proc and TCP links: the candidate block and every entry ride one
// frame, and it is still one broadcast, one reduction and the same bits.
func TestLongScanIsOneFrame(t *testing.T) {
	pat := makeData(t, 70, 600, 2, 67)
	t.Run("chan", func(t *testing.T) {
		eng, _, links := countedGrid(t, false, 2, 1, pat, makeSet(t, pat, false))
		scanOnce(t, eng, links, tree.Random(pat.Names, rng.New(68)), 1<<20, 64)
	})
	t.Run("tcp", func(t *testing.T) {
		eng, _, links := countedGrid(t, true, 3, 2, pat, makeSet(t, pat, true))
		scanOnce(t, eng, links, tree.Random(pat.Names, rng.New(69)), 1<<20, 64)
	})
}

// shortWideLink wraps a master link and, once armed, drops the last
// wide component from every reduction partial it receives — the shape
// of a partial answering some other job.
type shortWideLink struct {
	linkShim
	armed atomic.Bool
}

func (s *shortWideLink) Recv() (byte, []byte, error) {
	tag, payload, err := s.Link.Recv()
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
	short := &shortWideLink{linkShim: linkShim{serveRanks(t, false, 1)[0]}}
	eng, pool := newPool(t, []fabric.Link{short}, pat, makeSet(t, pat, true), 1)
	if err := eng.AttachTree(topo); err != nil {
		t.Fatal(err)
	}
	_ = eng.LogLikelihood()
	p, cands := pruneForScan(t, topo, 6)
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
}

// badCategoryLink wraps a master link and, once armed, rewrites the
// last pattern's rate category in every model-sync block it sends to a
// value the shipped category rates do not have — a bit flip past the
// CRC, or a frame from some other stream.
type badCategoryLink struct {
	linkShim
	offset   int   // byte offset of that category in a job frame
	category int32 // what to put there
	armed    atomic.Bool
}

func (b *badCategoryLink) Send(tag byte, payload []byte) error {
	const modelFlag = 1 // likelihood's jobFlagModel
	if b.armed.Load() && tag == TagJob && len(payload) > b.offset+4 && payload[1]&modelFlag != 0 {
		payload = append([]byte(nil), payload...)
		binary.LittleEndian.PutUint32(payload[b.offset:], uint32(b.category))
	}
	return b.Link.Send(tag, payload)
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
			m, w := fabric.LinkPair()
			defer m.Close()
			served := make(chan error, 1)
			go func() { served <- ServeSessions(w) }()
			// Frame layout up to the last category (the master keeps the
			// first stripe, the worker the last): code, flags, node
			// capacity; the weights; CAT flag and partition count; the
			// partition's ten model parameters, its one category rate, no
			// probabilities; the assignment's length and n-1 categories.
			bad := &badCategoryLink{
				linkShim: linkShim{m}, category: category,
				offset: 6 + (4 + 4*n) + 1 + 4 + 10*8 + (4 + 8) + 4 + 4 + 4*(n-1),
			}
			eng, _ := newPool(t, []fabric.Link{bad}, pat, makeSet(t, pat, true), 1)
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
		})
	}
}
