package likelihood

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// danglingScan prunes the first subtree of tr — hanging off an internal
// attachment node — that has at least eight regraft candidates within
// radius, and returns it with those candidates.
func danglingScan(t testing.TB, tr *tree.Tree, radius int) (*tree.PrunedSubtree, []tree.Edge) {
	t.Helper()
	for _, edge := range tr.Edges() {
		for _, dir := range [][2]int{{edge.A, edge.B}, {edge.B, edge.A}} {
			if tr.Nodes[dir[1]].IsTip() {
				continue
			}
			p, err := tr.DanglingPrune(dir[0], dir[1])
			if err != nil {
				continue
			}
			if cands := tr.AppendRegraftCandidates(nil, p, radius); len(cands) >= 8 {
				return p, cands
			}
			tr.PlugBack(p)
		}
	}
	t.Fatal("no subtree with eight regraft candidates")
	return nil, nil
}

// TestScanIsOneDispatch pins the batched scan's cost and its bits: N
// candidates over cold views are ONE pool dispatch — the descriptor
// carries the subtree view and every candidate's endpoint views, shared
// ones once — and every score equals, bit for bit, the one-candidate
// call on a twin engine. An empty batch costs nothing.
func TestScanIsOneDispatch(t *testing.T) {
	pat := randomPatterns(t, rng.New(901), 16, 300)
	rates := func() *gtr.RateCategories {
		return contentCAT(pat, 0, pat.NumPatterns(), []float64{0.4, 1.0, 1.9, 3.1})
	}
	batched := newEngine(t, pat, gtr.Default(), rates(), 3)
	single := newEngine(t, pat, gtr.Default(), rates(), 3)
	ta := tree.Random(pat.Names, rng.New(902))
	tb := ta.Clone()
	if err := batched.AttachTree(ta); err != nil {
		t.Fatal(err)
	}
	if err := single.AttachTree(tb); err != nil {
		t.Fatal(err)
	}
	pa, cands := danglingScan(t, ta, 6)
	if _, err := tb.DanglingPrune(pa.Root, pa.Attach); err != nil {
		t.Fatal(err)
	}
	batched.InvalidateAll()
	single.InvalidateAll()

	d0 := batched.DispatchCount()
	got := batched.EvaluateInsertions(pa.Root, pa.Attach, cands, nil)
	if d := batched.DispatchCount() - d0; d != 1 {
		t.Fatalf("%d candidates over cold views cost %d dispatches, want 1", len(cands), d)
	}
	// Post order, each stale view once: no directed edge appears twice.
	seen := map[[2]int]bool{}
	for _, ent := range batched.LastTraversal() {
		k := [2]int{ent.Node, ent.Slot}
		if seen[k] {
			t.Fatalf("view (%d, %d) queued twice in the union descriptor", ent.Node, ent.Slot)
		}
		seen[k] = true
	}
	if len(seen) == 0 {
		t.Fatal("cold scan posted an empty descriptor")
	}
	for i, c := range cands {
		want := single.EvaluateInsertion(pa.Root, pa.Attach, c.A, c.B)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("candidate %d (%d,%d): batched %.17g vs one-candidate call %.17g", i, c.A, c.B, got[i], want)
		}
	}
	// Warm views, reused destination: still one dispatch, same bits.
	d0 = batched.DispatchCount()
	again := batched.EvaluateInsertions(pa.Root, pa.Attach, cands, got[:0])
	if d := batched.DispatchCount() - d0; d != 1 || &again[0] != &got[0] {
		t.Fatalf("warm rescan: %d dispatches, destination reused %v", d, &again[0] == &got[0])
	}
	if len(batched.LastTraversal()) != 0 {
		t.Fatalf("warm rescan queued %d views", len(batched.LastTraversal()))
	}
	d0 = batched.DispatchCount()
	if out := batched.EvaluateInsertions(pa.Root, pa.Attach, nil, got); len(out) != 0 || batched.DispatchCount() != d0 {
		t.Fatalf("empty batch returned %d scores and cost %d dispatches", len(out), batched.DispatchCount()-d0)
	}
}

// abortingPool is a pool that raises AbortJob at its armed-th abort
// poll — deterministically in the middle of a descriptor walk, which
// polls once per entry. Its poll counter is not shared-safe, so every job
// states no work and the pool runs all ranges on the posting goroutine.
type abortingPool struct {
	*threads.Pool
	armed, polls int
}

func (p *abortingPool) Post(runner threads.JobRunner, code threads.JobCode) {
	p.Pool.Post(inlineRunner{runner}, code)
}

// inlineRunner states no work for any job, so the pool keeps it on the
// posting goroutine.
type inlineRunner struct{ threads.JobRunner }

func (inlineRunner) JobWork(threads.JobCode) int { return 0 }

func (p *abortingPool) Aborted() bool {
	p.polls++
	if p.polls == p.armed {
		p.Pool.AbortJob()
	}
	return p.Pool.Aborted()
}

// TestScanAbortMidBatch aborts a batched scan in the middle of its
// descriptor walk: the rollback must un-mark every view the batch
// queued — the subtree's and every candidate's — and a repeat must score
// exactly what an engine that was never aborted scores. On the 3-worker
// pool the master walks all three ranges itself (abortingPool states no
// work): the abort raised in range 0 must stop the ranges it runs for the
// helpers too.
func TestScanAbortMidBatch(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { scanAbortMidBatch(t, workers) })
	}
}

func scanAbortMidBatch(t *testing.T, workers int) {
	pat := randomPatterns(t, rng.New(911), 16, 60)
	pool := &abortingPool{Pool: threads.NewPool(workers, pat.NumPatterns())}
	t.Cleanup(pool.Close)
	e, err := New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	twin := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), workers)
	ta := tree.Random(pat.Names, rng.New(912))
	tb := ta.Clone()
	if err := e.AttachTree(ta); err != nil {
		t.Fatal(err)
	}
	if err := twin.AttachTree(tb); err != nil {
		t.Fatal(err)
	}
	pa, cands := danglingScan(t, ta, 6)
	pb, err := tb.DanglingPrune(pa.Root, pa.Attach)
	if err != nil {
		t.Fatal(err)
	}
	e.InvalidateAll()
	twin.InvalidateAll()

	pool.armed = pool.polls + 4 // the walk's 4th poll: three entries done
	e.EvaluateInsertions(pa.Root, pa.Attach, cands, nil)
	if !pool.Pool.Aborted() {
		t.Fatal("the scan was not aborted")
	}
	queued := e.LastTraversal()
	if len(queued) < 8 {
		t.Fatalf("aborted batch queued only %d views", len(queued))
	}
	for _, ent := range queued {
		if e.valid[ent.Node*3+ent.Slot] {
			t.Fatalf("view (%d, %d) still marked valid after the aborted batch", ent.Node, ent.Slot)
		}
	}

	got := e.EvaluateInsertions(pa.Root, pa.Attach, cands, nil)
	if n := len(e.LastTraversal()); n != len(queued) {
		t.Fatalf("repeat queued %d views, the aborted batch %d", n, len(queued))
	}
	want := twin.EvaluateInsertions(pa.Root, pa.Attach, cands, nil)
	for i := range cands {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("candidate %d after the abort: %.17g vs never-aborted %.17g", i, got[i], want[i])
		}
	}
	ta.PlugBack(pa)
	e.InvalidateNode(pa.Attach)
	tb.PlugBack(pb)
	twin.InvalidateNode(pa.Attach)
	if a, b := e.LogLikelihood(), twin.LogLikelihood(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("likelihood after the aborted scan %.17g vs never-aborted %.17g", a, b)
	}
	if c := pool.Counters(); c.Published != 0 || (workers > 1 && c.Inline != pool.Dispatches()) {
		t.Fatalf("counters %+v over %d dispatches: the abort poll counter needs every range on the master", c, pool.Dispatches())
	}
}

// scanFrame encodes the JobInsertScan frame of a scan over n candidates
// of a small engine: over cold views, so the frame carries the union
// descriptor, or over warm ones.
func scanFrame(t testing.TB, n int, cold bool) (frame []byte, e *Engine, cands []tree.Edge) {
	t.Helper()
	pat := randomPatterns(t, rng.New(921), 12, 40)
	var err error
	e, err = New(pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.Random(pat.Names, rng.New(922))
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	p, all := danglingScan(t, tr, 1<<20)
	for len(cands) < n {
		cands = append(cands, all[len(cands)%len(all)])
	}
	e.EvaluateInsertions(p.Root, p.Attach, cands, nil)
	if cold {
		e.InvalidateAll()
	}
	e.EvaluateInsertions(p.Root, p.Attach, cands, nil)
	return append([]byte(nil), e.EncodeWireJob(threads.JobInsertScan, false, false)...), e, cands
}

// TestWireScanRoundTrip pins the scan frame: the subtree view, the
// pendant length, N candidates of two views and an edge length at 34
// bytes each, then the union descriptor; a candidate count beyond the
// remaining bytes is refused before anything is allocated for it.
func TestWireScanRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 40} {
		frame, e, cands := scanFrame(t, n, true)
		job, err := DecodeWireJob(frame)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if job.Code != threads.JobInsertScan || job.NViews != 1 || job.Factors != nil || job.Model != nil {
			t.Fatalf("N=%d: code %d, %d views, factors %v, model %v", n, job.Code, job.NViews, job.Factors != nil, job.Model != nil)
		}
		if job.Views[0] != e.jobWire[0] || job.T != e.jobT {
			t.Fatalf("N=%d: subtree view %+v pendant %g, want %+v %g", n, job.Views[0], job.T, e.jobWire[0], e.jobT)
		}
		if len(job.Cands) != n || len(job.Entries) != len(e.trav) || len(job.Entries) == 0 {
			t.Fatalf("N=%d: %d candidates, %d entries for a %d-entry descriptor", n, len(job.Cands), len(job.Entries), len(e.trav))
		}
		for i, c := range job.Cands {
			if c != e.scanCands[i].wire || c.T != e.tree.EdgeLength(cands[i].A, cands[i].B) {
				t.Fatalf("N=%d candidate %d: %+v, want %+v", n, i, c, e.scanCands[i].wire)
			}
		}
		warm, _, _ := scanFrame(t, n, false)
		if want := scanCountOffset + 4 + n*wireCandBytes + 4; len(warm) != want {
			t.Fatalf("N=%d warm frame is %d bytes, want %d (%d per candidate)", n, len(warm), want, wireCandBytes)
		}
		for _, cut := range []int{15, len(frame) / 2, len(frame) - 1} {
			if _, err := DecodeWireJob(frame[:cut]); err == nil {
				t.Fatalf("N=%d: truncated scan frame (%d bytes) decoded without error", n, cut)
			}
		}
		lie := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(lie[scanCountOffset:], 1<<30)
		var reuse WireJob
		if err := DecodeWireJobInto(&reuse, lie); err == nil || cap(reuse.Cands) != 0 {
			t.Fatalf("N=%d: lying candidate count decoded (err %v) or allocated (%d)", n, err, cap(reuse.Cands))
		}
	}
}

// scanCountOffset is where a model-free scan frame holds its candidate
// count: code, flags, node capacity, pendant length, view count and the
// one subtree view precede it.
const scanCountOffset = 1 + 1 + 4 + 8 + 1 + wireViewBytes
