package threads

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSplitEvenCoversAll(t *testing.T) {
	prop := func(nRaw, kRaw uint8) bool {
		n := int(nRaw)
		k := int(kRaw)%16 + 1
		rs := SplitEven(n, k)
		if len(rs) != k {
			return false
		}
		lo := 0
		for _, r := range rs {
			if r.Lo != lo || r.Hi < r.Lo {
				return false
			}
			lo = r.Hi
		}
		if lo != n {
			return false
		}
		// sizes differ by at most 1
		min, max := n+1, -1
		for _, r := range rs {
			if r.Len() < min {
				min = r.Len()
			}
			if r.Len() > max {
				max = r.Len()
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitWeightedCoversAll(t *testing.T) {
	prop := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%8 + 1
		weights := make([]int, 50)
		s := seed
		for i := range weights {
			s = s*6364136223846793005 + 1442695040888963407
			weights[i] = int(uint64(s)>>58) % 20
		}
		rs := SplitWeighted(weights, k)
		lo := 0
		for _, r := range rs {
			if r.Lo != lo || r.Hi < r.Lo {
				return false
			}
			lo = r.Hi
		}
		return lo == len(weights)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitWeightedBalances(t *testing.T) {
	// Heavy weight at the front: unweighted split would give worker 0
	// nearly all the mass.
	weights := make([]int, 100)
	for i := range weights {
		if i < 10 {
			weights[i] = 100
		} else {
			weights[i] = 1
		}
	}
	rs := SplitWeighted(weights, 4)
	mass := func(r Range) int {
		m := 0
		for i := r.Lo; i < r.Hi; i++ {
			m += weights[i]
		}
		return m
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	for i, r := range rs {
		m := mass(r)
		if m > total {
			t.Fatalf("range %d mass %d exceeds total", i, m)
		}
	}
	// The first range should NOT contain all heavy patterns' mass plus more:
	// it should hold roughly total/4.
	if m := mass(rs[0]); m > total/2 {
		t.Fatalf("weighted split left %d of %d mass in first range", m, total)
	}
}

func TestPoolClampsWorkers(t *testing.T) {
	p := NewPool(16, 4)
	defer p.Close()
	if p.Workers() != 4 {
		t.Fatalf("pool over 4 patterns kept %d workers, want 4", p.Workers())
	}
	q := NewPool(0, 10)
	defer q.Close()
	if q.Workers() != 1 {
		t.Fatalf("workers=0 should clamp to 1, got %d", q.Workers())
	}
}

func TestParallelForVisitsAllPatterns(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers, 1000)
		visited := make([]int32, 1000)
		p.ParallelFor(func(w int, r Range) {
			for i := r.Lo; i < r.Hi; i++ {
				atomic.AddInt32(&visited[i], 1)
			}
		})
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("workers=%d: pattern %d visited %d times", workers, i, v)
			}
		}
		p.Close()
	}
}

func TestParallelForBarrierSemantics(t *testing.T) {
	p := NewPool(4, 400)
	defer p.Close()
	var flag int32
	p.ParallelFor(func(w int, r Range) {
		atomic.AddInt32(&flag, 1)
	})
	// After ParallelFor returns, every worker must have completed.
	if got := atomic.LoadInt32(&flag); got != 4 {
		t.Fatalf("barrier returned before all workers done: %d of 4", got)
	}
}

func TestReduceSumMatchesSerial(t *testing.T) {
	data := make([]float64, 1777)
	for i := range data {
		data[i] = float64(i%13) * 0.25
	}
	want := 0.0
	for _, v := range data {
		want += v
	}
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers, len(data))
		got := p.ReduceSum(func(w int, r Range) float64 {
			s := 0.0
			for i := r.Lo; i < r.Hi; i++ {
				s += data[i]
			}
			return s
		})
		p.Close()
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("workers=%d: ReduceSum=%g want %g", workers, got, want)
		}
	}
}

func TestReduceSumDeterministicAcrossRuns(t *testing.T) {
	data := make([]float64, 5000)
	for i := range data {
		data[i] = 1.0 / float64(i+1)
	}
	p := NewPool(8, len(data))
	defer p.Close()
	f := func(w int, r Range) float64 {
		s := 0.0
		for i := r.Lo; i < r.Hi; i++ {
			s += data[i]
		}
		return s
	}
	first := p.ReduceSum(f)
	for trial := 0; trial < 50; trial++ {
		if got := p.ReduceSum(f); got != first {
			t.Fatalf("trial %d: reduction not bit-identical: %v vs %v", trial, got, first)
		}
	}
}

func TestReduceSum2(t *testing.T) {
	p := NewPool(3, 300)
	defer p.Close()
	a, b := p.ReduceSum2(func(w int, r Range) (float64, float64) {
		return float64(r.Len()), 2 * float64(r.Len())
	})
	if a != 300 || b != 600 {
		t.Fatalf("ReduceSum2 = (%g, %g), want (300, 600)", a, b)
	}
}

func TestPoolReusableManyJobs(t *testing.T) {
	p := NewPool(4, 128)
	defer p.Close()
	var total int64
	for job := 0; job < 200; job++ {
		p.ParallelFor(func(w int, r Range) {
			atomic.AddInt64(&total, int64(r.Len()))
		})
	}
	if total != 200*128 {
		t.Fatalf("total work = %d, want %d", total, 200*128)
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := NewPool(2, 10)
	p.Close()
	p.Close() // must not panic
}

func TestInlinePoolNoGoroutines(t *testing.T) {
	p := NewPool(1, 100)
	ran := false
	p.ParallelFor(func(w int, r Range) {
		if w != 0 || r.Lo != 0 || r.Hi != 100 {
			t.Errorf("inline pool gave worker=%d range=%+v", w, r)
		}
		ran = true
	})
	if !ran {
		t.Fatal("inline pool did not run the job")
	}
	p.Close()
}

func TestWeightedPool(t *testing.T) {
	weights := make([]int, 64)
	for i := range weights {
		weights[i] = i
	}
	p := NewPoolWeighted(4, weights)
	defer p.Close()
	covered := make([]bool, 64)
	p.ParallelFor(func(w int, r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			covered[i] = true
		}
	})
	for i, c := range covered {
		if !c {
			t.Fatalf("pattern %d not covered by weighted pool", i)
		}
	}
}

func BenchmarkParallelForOverhead(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+string(rune('0'+workers)), func(b *testing.B) {
			p := NewPool(workers, 1846)
			defer p.Close()
			for i := 0; i < b.N; i++ {
				p.ParallelFor(func(w int, r Range) {})
			}
		})
	}
}

func BenchmarkReduceSumKernel(b *testing.B) {
	data := make([]float64, 19436)
	for i := range data {
		data[i] = float64(i)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+string(rune('0'+workers)), func(b *testing.B) {
			p := NewPool(workers, len(data))
			defer p.Close()
			for i := 0; i < b.N; i++ {
				_ = p.ReduceSum(func(w int, r Range) float64 {
					s := 0.0
					for j := r.Lo; j < r.Hi; j++ {
						s += data[j]
					}
					return s
				})
			}
		})
	}
}

func TestAlignRangesSnapsBoundaries(t *testing.T) {
	const n, workers, quantum = 1288, 4, 16
	p := NewPool(workers, n)
	defer p.Close()
	p.AlignRanges(quantum)
	lo := 0
	for i, r := range p.Ranges() {
		if r.Lo != lo {
			t.Fatalf("worker %d: stripe starts at %d, want %d (contiguous cover)", i, r.Lo, lo)
		}
		if i < workers-1 && r.Hi%quantum != 0 {
			t.Fatalf("worker %d: boundary %d not a multiple of %d", i, r.Hi, quantum)
		}
		if r.Len() == 0 {
			t.Fatalf("worker %d: empty stripe after alignment", i)
		}
		// Boundaries move by at most quantum/2, so stripes stay balanced.
		if want := n / workers; r.Len() < want-quantum || r.Len() > want+quantum {
			t.Fatalf("worker %d: stripe of %d patterns, want %d±%d", i, r.Len(), want, quantum)
		}
		lo = r.Hi
	}
	if lo != n {
		t.Fatalf("stripes cover %d patterns, want %d", lo, n)
	}
}

func TestAlignRangesSmallWorkloadNoOp(t *testing.T) {
	// Average stripe below 2*quantum: snapping could empty a stripe, so
	// the call must leave the even split untouched.
	const n, workers, quantum = 100, 16, 16
	p := NewPool(workers, n)
	defer p.Close()
	want := append([]Range(nil), p.Ranges()...)
	p.AlignRanges(quantum)
	for i, r := range p.Ranges() {
		if r != want[i] {
			t.Fatalf("worker %d: stripe changed %v -> %v on a small workload", i, want[i], r)
		}
		if r.Len() == 0 {
			t.Fatalf("worker %d: empty stripe", i)
		}
	}
}

func TestAlignRangesNarrowWeightedStripeStaysNonEmpty(t *testing.T) {
	// Regression test for the NewPoolWeighted + AlignRanges interaction:
	// a weighted split can produce a stripe narrower than the quantum
	// even when the total span is large. Snapping must be per-boundary —
	// a move that would empty a stripe is skipped while every other
	// boundary still snaps — instead of the old global no-op that
	// disabled cache alignment for the whole pool.
	weights := make([]int, 1288)
	for i := range weights {
		weights[i] = 1
	}
	// Pile weight onto a narrow band so one worker's stripe is thin.
	for i := 100; i < 104; i++ {
		weights[i] = 1000
	}
	p := NewPoolWeighted(4, weights)
	defer p.Close()
	narrow := false
	for _, r := range p.Ranges() {
		if r.Len() < 32 {
			narrow = true
		}
	}
	if !narrow {
		t.Skip("weighted split produced no narrow stripe; probe needs retuning")
	}
	p.AlignRanges(16)
	assertRangesCover(t, p.Ranges(), 1288)
	snapped := 0
	for i, r := range p.Ranges() {
		if r.Len() == 0 {
			t.Fatalf("worker %d: stripe emptied by snapping: %v", i, r)
		}
		if i < p.Workers()-1 && r.Hi%16 == 0 {
			snapped++
		}
	}
	if snapped == 0 {
		t.Fatalf("no boundary snapped despite a wide axis: %v", p.Ranges())
	}
}

// assertRangesCover checks the stripe-partition invariants: contiguous,
// monotone, covering [0, n).
func assertRangesCover(t *testing.T, rs []Range, n int) {
	t.Helper()
	lo := 0
	for i, r := range rs {
		if r.Lo != lo || r.Hi < r.Lo {
			t.Fatalf("range %d = %v breaks the contiguous cover at %d", i, r, lo)
		}
		lo = r.Hi
	}
	if lo != n {
		t.Fatalf("ranges cover %d patterns, want %d", lo, n)
	}
}

func TestAlignRangesAtSnapsRelativeToPartitionStarts(t *testing.T) {
	// Partition starts at an offset that is NOT a multiple of the
	// quantum: boundaries inside that partition must snap relative to
	// the partition start, not to the global origin.
	const n, workers, quantum = 1000, 4, 16
	starts := []int{0, 237, 700}
	p := NewPool(workers, n)
	defer p.Close()
	p.AlignRangesAt(quantum, starts)
	assertRangesCover(t, p.Ranges(), n)
	for i, r := range p.Ranges() {
		if i == workers-1 {
			continue
		}
		b := r.Hi
		// The boundary is either a partition start itself or a
		// quantum multiple relative to its containing partition.
		s := 0
		for _, st := range starts {
			if st <= b && st > s {
				s = st
			}
		}
		if b != s && (b-s)%quantum != 0 {
			t.Fatalf("worker %d: boundary %d is neither partition-aligned nor %d-aligned within its partition (start %d)",
				i, b, quantum, s)
		}
	}
}

func TestAlignRangesAtDegenerateNarrowPartition(t *testing.T) {
	// A partition far narrower than the quantum: boundaries that land
	// inside it can only snap to its edges; stripes must stay non-empty
	// and the cover intact.
	const n, workers, quantum = 512, 4, 16
	starts := []int{0, 253, 256} // 3-pattern partition in the middle
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1
	}
	// Force a worker boundary into the narrow partition.
	weights[254] = 600
	p := NewPoolWeighted(workers, weights)
	defer p.Close()
	before := append([]Range(nil), p.Ranges()...)
	p.AlignRangesAt(quantum, starts)
	assertRangesCover(t, p.Ranges(), n)
	for i, r := range p.Ranges() {
		if before[i].Len() > 0 && r.Len() == 0 {
			t.Fatalf("worker %d: snapping emptied stripe %v -> %v", i, before[i], r)
		}
	}
}

func TestAlignRangesAtProperty(t *testing.T) {
	prop := func(seed int64, wRaw, qRaw uint8) bool {
		workers := int(wRaw)%6 + 2
		quantum := []int{2, 4, 8, 16}[int(qRaw)%4]
		n := 64*workers + int(uint64(seed)%257)
		weights := make([]int, n)
		s := seed
		for i := range weights {
			s = s*6364136223846793005 + 1442695040888963407
			weights[i] = int(uint64(s)>>59) % 9
		}
		var starts []int
		for off := 0; off < n; {
			starts = append(starts, off)
			s = s*6364136223846793005 + 1442695040888963407
			off += 1 + int(uint64(s)>>56)%97
		}
		p := NewPoolWeighted(workers, weights)
		defer p.Close()
		before := append([]Range(nil), p.Ranges()...)
		p.AlignRangesAt(quantum, starts)
		lo := 0
		for i, r := range p.Ranges() {
			if r.Lo != lo || r.Hi < r.Lo {
				return false
			}
			// Non-empty stripes stay non-empty.
			if before[i].Len() > 0 && r.Len() == 0 {
				return false
			}
			// Boundaries move by at most quantum/2.
			if i < workers-1 {
				d := r.Hi - before[i].Hi
				if d < -quantum/2 || d > quantum/2 {
					return false
				}
			}
			lo = r.Hi
		}
		return lo == n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestNewPoolPartitionedWeightedAligned(t *testing.T) {
	n := 1288
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1 + i%3
	}
	starts := []int{0, 500, 900}
	p := NewPoolPartitioned(4, weights, starts, 16)
	defer p.Close()
	assertRangesCover(t, p.Ranges(), n)
	mass := func(r Range) int {
		m := 0
		for i := r.Lo; i < r.Hi; i++ {
			m += weights[i]
		}
		return m
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	for i, r := range p.Ranges() {
		if m := mass(r); m < total/8 || m > total/2 {
			t.Fatalf("worker %d mass %d of %d: weighted split lost balance", i, m, total)
		}
	}
}

func TestForkJoinCoversAllChunks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers, 256)
		visited := make([]int32, 1000)
		var calls int32
		p.ForkJoin(len(visited), 8, func(lo, hi int) {
			atomic.AddInt32(&calls, 1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visited[i], 1)
			}
		})
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("workers=%d: item %d visited %d times", workers, i, v)
			}
		}
		if int(calls) != workers {
			t.Fatalf("workers=%d: fork ran %d chunks, want one per worker", workers, calls)
		}
		// A window: only [lo, hi) is visited again, in chunks whose sizes
		// differ by at most one.
		var minLen, maxLen int32 = 1 << 30, 0
		var mu sync.Mutex
		p.ForkJoinRange(100, 111, 2, func(lo, hi int) {
			mu.Lock()
			minLen, maxLen = min(minLen, int32(hi-lo)), max(maxLen, int32(hi-lo))
			mu.Unlock()
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visited[i], 1)
			}
		})
		for i, v := range visited {
			want := int32(1)
			if i >= 100 && i < 111 {
				want = 2
			}
			if v != want {
				t.Fatalf("workers=%d: after the windowed fork item %d has %d visits, want %d", workers, i, v, want)
			}
		}
		if maxLen-minLen > 1 {
			t.Fatalf("workers=%d: windowed fork chunks span %d..%d items", workers, minLen, maxLen)
		}
		if d := p.Dispatches(); d != 0 {
			t.Fatalf("workers=%d: ForkJoin counted %d pool dispatches, want 0", workers, d)
		}
		p.Close()
	}
	// Tiny and empty inputs run inline (or not at all).
	p := NewPool(4, 256)
	defer p.Close()
	sum := 0
	p.ForkJoin(3, 8, func(lo, hi int) { sum += hi - lo })
	if sum != 3 {
		t.Fatalf("inline ForkJoin covered %d of 3 items", sum)
	}
	p.ForkJoinRange(5, 5, 1, func(lo, hi int) { t.Fatalf("empty window ran [%d, %d)", lo, hi) })
}

// TestForkJoinOnCrewIsFreeOfSideEffects pins what lets the fork run on
// the crew between two posts of the descriptor engine: it allocates
// nothing, it is not a counted dispatch, it leaves a pending abort
// request for the job it was raised against, and posted jobs interleave
// with it freely.
func TestForkJoinOnCrewIsFreeOfSideEffects(t *testing.T) {
	p := NewPool(3, 300)
	defer p.Close()
	cells := make([]int64, 64)
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cells[i]++
		}
	}
	p.ForkJoin(len(cells), 2, fill) // warm
	if avg := testing.AllocsPerRun(200, func() {
		p.ForkJoin(len(cells), 2, fill)
		p.ForkJoinRange(8, 40, 2, fill)
	}); avg != 0 {
		t.Fatalf("ForkJoin allocates %.1f times per call pair, want 0", avg)
	}
	rn := &sumRunner{pool: p, data: make([]float64, 300), execs: make([]int64, p.Workers())}
	p.Post(rn, JobEvaluate)
	p.AbortJob()
	p.ForkJoin(len(cells), 2, fill)
	if !p.Aborted() {
		t.Fatal("a fork cleared the abort flag")
	}
	p.Post(rn, JobEvaluate)
	if p.Aborted() {
		t.Fatal("the next Post did not clear the abort flag")
	}
	if d := p.Dispatches(); d != 2 {
		t.Fatalf("%d dispatches counted for 2 posts and several forks", d)
	}
	for i, c := range cells {
		if want := cells[0]; i >= 8 && i < 40 {
			if c != cells[8] {
				t.Fatalf("cell %d filled %d times, cell 8 %d", i, c, cells[8])
			}
		} else if c != want {
			t.Fatalf("cell %d filled %d times, cell 0 %d", i, c, want)
		}
	}
}
