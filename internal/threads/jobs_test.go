package threads

import (
	"sync/atomic"
	"testing"
)

// sumRunner is a minimal JobRunner: JobEvaluate sums its data range
// into the worker's slot; JobNewview counts executions per worker.
type sumRunner struct {
	pool  *Pool
	data  []float64
	execs []int64
}

func (s *sumRunner) RunJob(code JobCode, w int, r Range) {
	switch code {
	case JobEvaluate:
		sum := 0.0
		for i := r.Lo; i < r.Hi; i++ {
			sum += s.data[i]
		}
		s.pool.Slot(w)[0] = sum
	case JobNewview:
		atomic.AddInt64(&s.execs[w], 1)
	default:
		panic("unexpected job code")
	}
}

func TestPostJobCodeReduces(t *testing.T) {
	data := make([]float64, 1777)
	want := 0.0
	for i := range data {
		data[i] = float64(i%13) * 0.25
		want += data[i]
	}
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers, len(data))
		rn := &sumRunner{pool: p, data: data, execs: make([]int64, p.Workers())}
		p.Post(rn, JobEvaluate)
		if got := p.SumSlots(0); got < want-1e-9 || got > want+1e-9 {
			t.Fatalf("workers=%d: Post reduction=%g want %g", workers, got, want)
		}
		p.Close()
	}
}

func TestPostRunsEveryWorkerOnce(t *testing.T) {
	p := NewPool(4, 1000)
	defer p.Close()
	rn := &sumRunner{pool: p, execs: make([]int64, p.Workers())}
	const jobs = 200
	for j := 0; j < jobs; j++ {
		p.Post(rn, JobNewview)
	}
	for w, n := range rn.execs {
		if n != jobs {
			t.Fatalf("worker %d executed %d jobs, want %d", w, n, jobs)
		}
	}
}

func TestPostWorkerCountClamped(t *testing.T) {
	// More workers than patterns: the crew must be clamped so no worker
	// owns an empty range, and posting must still cover every pattern.
	p := NewPool(32, 5)
	defer p.Close()
	if p.Workers() != 5 {
		t.Fatalf("pool over 5 patterns kept %d workers, want 5", p.Workers())
	}
	covered := make([]int32, 5)
	rn := &coverRunner{pool: p, covered: covered}
	p.Post(rn, JobNewview)
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("pattern %d covered %d times", i, c)
		}
	}
	// A stripe constructor clamps to the stripe's width.
	q := NewPoolStripeEven(9, 7, 9)
	defer q.Close()
	if q.Workers() != 2 {
		t.Fatalf("pool over a 2-pattern stripe kept %d workers, want 2", q.Workers())
	}
}

type coverRunner struct {
	pool    *Pool
	covered []int32
}

func (c *coverRunner) RunJob(code JobCode, w int, r Range) {
	for i := r.Lo; i < r.Hi; i++ {
		atomic.AddInt32(&c.covered[i], 1)
	}
}

func TestDispatchCounter(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := NewPool(workers, 300)
		if p.Dispatches() != 0 {
			t.Fatalf("fresh pool has %d dispatches", p.Dispatches())
		}
		rn := &sumRunner{pool: p, data: make([]float64, 300), execs: make([]int64, p.Workers())}
		p.Post(rn, JobEvaluate)
		p.ParallelFor(func(w int, r Range) {})
		_ = p.reduceSum(func(w int, r Range) float64 { return 0 })
		if got := p.Dispatches(); got != 3 {
			t.Fatalf("workers=%d: %d dispatches recorded, want 3", workers, got)
		}
		p.Close()
	}
}

func TestSlotsArePerWorkerAndDeterministic(t *testing.T) {
	p := NewPool(4, 400)
	defer p.Close()
	p.ParallelFor(func(w int, r Range) {
		s := p.Slot(w)
		s[0] = float64(w + 1)
		s[1] = float64((w + 1) * 10)
	})
	if got := p.SumSlots(0); got != 1+2+3+4 {
		t.Fatalf("SumSlots(0)=%g want 10", got)
	}
	a, b := p.SumSlots2(0, 1)
	if a != 10 || b != 100 {
		t.Fatalf("SumSlots2=(%g,%g) want (10,100)", a, b)
	}
	// Identical inputs must reduce bit-identically run after run.
	first := p.SumSlots(1)
	for i := 0; i < 50; i++ {
		if got := p.SumSlots(1); got != first {
			t.Fatalf("slot reduction not deterministic: %v vs %v", got, first)
		}
	}
}

func BenchmarkPostJobCode(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+string(rune('0'+workers)), func(b *testing.B) {
			p := NewPool(workers, 1846)
			defer p.Close()
			rn := &sumRunner{pool: p, data: make([]float64, 1846), execs: make([]int64, p.Workers())}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Post(rn, JobEvaluate)
			}
		})
	}
}
