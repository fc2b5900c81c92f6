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
// step can be hoisted. It is calibrated against the real kernel, not
// against a loop count: on the reference host a step costs 5.4 ns per
// pattern here (the inline rows' step_ns metric) where
// BenchmarkNewviewArena reads 3.4 (GAMMA) to 4.7 (CAT) ns per pattern,
// category and entry once the master-side matrix fill is taken out, so a
// step states 4/3 WorkEstimator units and a `work` label is in the units
// the engines report.
type newviewLike struct {
	steps int
	p     [16]float64
	a, b  []float64
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

func (r *newviewLike) JobWork(JobCode) int { return r.steps * 4 / 3 }

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

// awaitParked spins until every helper waits on jobCond.
func (p *Pool) awaitParked() {
	for int(p.parked.Load()) != p.workers-1 {
		time.Sleep(20 * time.Microsecond)
	}
}

// BenchmarkPostCrossover is the table behind both crossovers: one Post of a
// job of `work` units per range (JobWork × the widest range) on a
// 2-worker pool, forced to either side of the rule — inline (the master
// runs both ranges) or fork (published) — with the helper hot (posts back
// to back, the helper inside its spin window) or parked (every post waits
// for the helper to be asleep on jobCond first; only the Post is timed).
// postCrossover sits where fork stops losing in the parked column and
// spinCrossover where it does in the hot one; see docs/profiling.md, "What
// parking looks like".
func BenchmarkPostCrossover(b *testing.B) {
	const patterns = 512 // 256 per range: 8 KB per buffer and range, L1-resident
	defer func(post, spin int) { postCrossover, spinCrossover = post, spin }(postCrossover, spinCrossover)
	for _, crew := range []string{"hot", "parked"} {
		for _, work := range []int{1, 4, 16, 64, 256} {
			for _, side := range []string{"inline", "fork"} {
				b.Run(fmt.Sprintf("%s/work=%dk/%s", crew, work, side), func(b *testing.B) {
					postCrossover, spinCrossover = 0, 0
					if side == "inline" {
						postCrossover, spinCrossover = math.MaxInt, math.MaxInt
					}
					p := NewPool(2, patterns)
					defer p.Close()
					rn := newNewviewLike(patterns, work<<10/(patterns/2)*3/4)
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
