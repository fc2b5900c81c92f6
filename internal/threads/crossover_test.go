package threads

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// newviewLike is the synthetic runner of BenchmarkPostCrossover: per
// pattern and step it does a newview's inner work, a 4×4 matrix-vector
// product on a CLV-shaped block, ping-ponging between two buffers so no
// step can be hoisted. On the reference host a step costs 5.4 ns per
// pattern here (the inline rows' step_ns metric) where
// BenchmarkNewviewArena reads 3.4 (GAMMA) to 4.7 (CAT) ns per pattern,
// category and entry once the master-side matrix fill is taken out. It
// states the work it is told to (stated), so the benchmark can force
// either side of the pool's rule.
type newviewLike struct {
	steps, stated int
	p             [16]float64
	a, b          []float64
}

func newNewviewLike(patterns, steps int) *newviewLike {
	r := &newviewLike{steps: steps, a: make([]float64, 4*patterns), b: make([]float64, 4*patterns)}
	for i := range r.p {
		r.p[i] = 0.1
		if i%5 == 0 {
			r.p[i] = 0.7 // rows sum to 1: values stay where they start
		}
	}
	for i := range r.a {
		r.a[i] = 0.25 + float64(i%4)*0.1
	}
	return r
}

func (r *newviewLike) JobWork(JobCode) int { return r.stated }

func (r *newviewLike) RunJob(_ JobCode, _ int, rg Range) {
	src, dst := r.a, r.b
	p := &r.p
	for s := 0; s < r.steps; s++ {
		x := src[rg.Lo*4 : rg.Hi*4]
		o := dst[rg.Lo*4 : rg.Hi*4]
		for k := 0; k+4 <= len(x) && k+4 <= len(o); k += 4 {
			x0, x1, x2, x3 := x[k], x[k+1], x[k+2], x[k+3]
			o[k] = (p[0]*x0 + p[1]*x1) + (p[2]*x2 + p[3]*x3)
			o[k+1] = (p[4]*x0 + p[5]*x1) + (p[6]*x2 + p[7]*x3)
			o[k+2] = (p[8]*x0 + p[9]*x1) + (p[10]*x2 + p[11]*x3)
			o[k+3] = (p[12]*x0 + p[13]*x1) + (p[14]*x2 + p[15]*x3)
		}
		src, dst = dst, src
	}
}

// BenchmarkPostCrossover times one Post of a job of `work` units per
// range — newviewLike steps over a range at 4/3 of a step per unit — on
// a 2-worker pool, forced to either side of the pool's rule: inline (the
// job states no work, so the master runs both ranges) or fork (it states
// more than any crew declines, so it is published), with the helper hot
// (posts back to back; every publication fills the spin bank, so the
// helper spins through to the next post) or parked (every post waits for
// the helper to be asleep on jobCond first; only the Post is timed). It
// gates what a publication costs against running every range on the
// master, at a fixed amount of work; the cost table's hotCost and
// wakeCost are fitted on the real kernels by likelihood's
// BenchmarkKernelCrossover (docs/profiling.md, "The cost table").
func BenchmarkPostCrossover(b *testing.B) {
	const patterns = 512 // 256 per range: 8 KB per buffer and range, L1-resident
	for _, crew := range []string{"hot", "parked"} {
		for _, work := range []int{1, 4, 16, 64, 256} {
			for _, side := range []string{"inline", "fork"} {
				b.Run(fmt.Sprintf("%s/work=%dk/%s", crew, work, side), func(b *testing.B) {
					p := NewPool(2, patterns)
					defer p.Close()
					rn := newNewviewLike(patterns, work<<10/(patterns/2)*3/4)
					if side == "fork" {
						rn.stated = math.MaxInt32
					}
					p.Post(rn, JobNewview) // warm
					var total time.Duration
					for i := 0; i < b.N; i++ {
						if crew == "parked" {
							p.awaitParked()
						}
						t0 := time.Now()
						p.Post(rn, JobNewview)
						total += time.Since(t0)
					}
					b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
					c := p.Counters()
					b.ReportMetric(float64(c.Taken)/float64(b.N), "taken/op")
					if side == "inline" {
						b.ReportMetric(float64(total.Nanoseconds())/float64(b.N)/float64(rn.steps*patterns), "step_ns")
					}
				})
			}
		}
	}
}
