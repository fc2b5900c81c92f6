package threads

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// claimRunner states a configurable amount of work and leaves, per job, a
// range-dependent value in every slot and wide row, counting executions
// per range so a range run twice or not at all shows.
type claimRunner struct {
	pool  *Pool
	work  int
	round int64
	execs []atomic.Int64
	yield bool
}

func newClaimRunner(p *Pool) *claimRunner {
	p.EnsureWide(3)
	return &claimRunner{pool: p, execs: make([]atomic.Int64, p.Workers())}
}

func (c *claimRunner) JobWork(JobCode) int { return c.work }

func (c *claimRunner) RunJob(_ JobCode, w int, r Range) {
	if c.yield && (int(c.round)+w)%3 == 0 {
		runtime.Gosched()
	}
	c.execs[w].Add(1)
	sum := 0.0
	for k := r.Lo; k < r.Hi; k++ {
		sum += math.Sqrt(float64(k) + float64(c.round))
	}
	c.pool.Slot(w)[0] = sum
	ws := c.pool.WideSlot(w)
	ws[0], ws[2] = sum/3, float64(w)+float64(c.round)
}

// want is the reduction a correct job leaves: every range's partial,
// folded in range order.
func (c *claimRunner) want() (slot, wide float64) {
	for _, r := range c.pool.Ranges() {
		sum := 0.0
		for k := r.Lo; k < r.Hi; k++ {
			sum += math.Sqrt(float64(k) + float64(c.round))
		}
		slot += sum
		wide += sum / 3
	}
	return slot, wide
}

func (c *claimRunner) check(t *testing.T, what string) {
	t.Helper()
	slot, wide := c.want()
	if got := c.pool.SumSlots(0); math.Float64bits(got) != math.Float64bits(slot) {
		t.Fatalf("%s, round %d: slot sum %v, want %v", what, c.round, got, slot)
	}
	if got := c.pool.SumWide(0); math.Float64bits(got) != math.Float64bits(wide) {
		t.Fatalf("%s, round %d: wide sum %v, want %v", what, c.round, got, wide)
	}
	for w := range c.execs {
		if n := c.execs[w].Load(); n != c.round {
			t.Fatalf("%s, round %d: range %d ran %d times", what, c.round, w, n)
		}
	}
}

// post runs one job of the given stated work and checks its result.
func (c *claimRunner) post(t *testing.T, work int, what string) {
	t.Helper()
	c.work = work
	c.round++
	c.pool.Post(c, JobEvaluate)
	c.check(t, what)
}

// TestPostCompletesWithHelperHeld holds every helper between seeing a
// generation and claiming — caught hot inside its spin window, or woken
// from jobCond — and posts 10 000 jobs of every size class: each must
// return (the master never waits for a range nobody started), reduce to
// the bits an undisturbed pool produces, and be counted exactly.
func TestPostCompletesWithHelperHeld(t *testing.T) {
	for _, crew := range []string{"hot", "parked"} {
		t.Run(crew, func(t *testing.T) {
			p := NewPool(3, 300)
			defer p.Close()
			p.assign.Store(assignHold)
			defer p.assign.Store(0)
			if crew == "parked" {
				p.awaitParked()
			}
			c := newClaimRunner(p)
			const posts = 10000
			cells := make([]int, 64)
			forks := 0
			for i := 0; i < posts; i++ {
				switch i % 4 {
				case 0:
					c.post(t, 0, "inline")
				case 1:
					c.post(t, math.MaxInt/1024, "published")
				case 2:
					c.round++
					p.ParallelFor(func(w int, r Range) { c.RunJob(JobEvaluate, w, r) })
					c.check(t, "closure")
				default:
					c.post(t, p.wakeSteps, "at the crossover")
					p.ForkJoin(len(cells), 2, func(lo, hi int) {
						for k := lo; k < hi; k++ {
							cells[k]++
						}
					})
					forks++
				}
			}
			for k, n := range cells {
				if n != forks {
					t.Fatalf("fork cell %d filled %d times in %d forks", k, n, forks)
				}
			}
			if d := p.Dispatches(); d != posts {
				t.Fatalf("%d dispatches counted for %d posts", d, posts)
			}
			got := p.Counters()
			want := Counters{Inline: posts / 4, Published: 3 * posts / 4, Taken: int64(p.Workers()-1) * (3*posts/4 + int64(forks))}
			want.Wakes = got.Wakes // a held helper is parked for the first publication at most
			if got != want || got.Wakes > 1 {
				t.Fatalf("counters %+v, want %+v with at most one wake", got, want)
			}
		})
	}
}

// TestLateHelperCannotClaimBackwards releases a helper that saw
// generation g only after the master ran g and three further generations
// alone: its stale claim must fail, so no range runs twice and no slot is
// overwritten, and the helper then rejoins the protocol.
func TestLateHelperCannotClaimBackwards(t *testing.T) {
	p := NewPool(2, 200)
	defer p.Close()
	p.assign.Store(assignHold)
	c := newClaimRunner(p)
	for i := 0; i < 4; i++ {
		c.post(t, math.MaxInt/1024, "helper held")
	}
	g := p.gen.Load()
	p.assign.Store(0)
	p.awaitParked() // the helper went through its stale generation and found nothing newer
	if got := p.cells[1].gen.Load(); got != g {
		t.Fatalf("range 1's claim cell holds generation %d after the late helper passed, want %d", got, g)
	}
	c.check(t, "after the release")
	if got := p.Counters().Taken; got != 4 {
		t.Fatalf("master took %d ranges over 4 held generations, want 4", got)
	}
	// Back in step: pinned on the helper, range 1 runs there.
	p.ForceAssignment(0)
	c.post(t, math.MaxInt/1024, "helper pinned")
	p.ClearAssignment()
	if got := p.Counters().Taken; got != 4 {
		t.Fatalf("master took a range pinned on the helper (taken %d)", got)
	}
}

// TestCountersSplitDispatches pins the dispatch rule itself: with a
// helper asleep a job is published from postCrossover, the work that pays
// for the wake, and with the crew awake — here held just short of its
// claim, so it cannot park — from spinCrossover; a runner that states
// nothing is published, and the 1-worker pool counts neither.
func TestCountersSplitDispatches(t *testing.T) {
	p := NewPool(2, 512)
	defer p.Close()
	if p.wakeSteps != postCrossover/256 || p.spinSteps != spinCrossover/256 {
		t.Fatalf("2 ranges of 256 patterns publish from %d steps asleep and %d awake, want %d and %d",
			p.wakeSteps, p.spinSteps, postCrossover/256, spinCrossover/256)
	}
	p.assign.Store(assignHold)
	defer p.assign.Store(0)
	p.awaitParked()
	c := newClaimRunner(p)
	step := func(work int, what string, want Counters) {
		t.Helper()
		c.post(t, work, what)
		if got := p.Counters(); got.Inline != want.Inline || got.Published != want.Published || got.Wakes != want.Wakes {
			t.Fatalf("%s: counters %+v, want %+v", what, got, want)
		}
	}
	step(p.wakeSteps-1, "asleep, below", Counters{Inline: 1})
	step(p.wakeSteps, "asleep, at", Counters{Inline: 1, Published: 1, Wakes: 1})
	step(p.spinSteps-1, "awake, below", Counters{Inline: 2, Published: 1, Wakes: 1})
	step(p.spinSteps, "awake, at", Counters{Inline: 2, Published: 2, Wakes: 1})
	c.round++
	p.Post(noWork{c}, JobEvaluate)
	c.check(t, "no estimate")
	if got := p.Counters(); got.Inline != 2 || got.Published != 3 {
		t.Fatalf("counters %+v after a runner without an estimate, want 2 inline and 3 published", got)
	}
	q := NewPool(1, 512)
	qc := newClaimRunner(q)
	qc.post(t, 0, "serial")
	if got := q.Counters(); got != (Counters{}) || q.Dispatches() != 1 {
		t.Fatalf("1-worker pool counters %+v after %d dispatches, want none and 1", got, q.Dispatches())
	}
}

// noWork hides a runner's JobWork.
type noWork struct{ r *claimRunner }

func (n noWork) RunJob(code JobCode, w int, r Range) { n.r.RunJob(code, w, r) }

// TestClaimStress alternates inline and published jobs and forks on a
// crew whose ranges yield at random points, so claims are won by the
// master and by the helpers in every interleaving the scheduler offers;
// run under -race -count=50 by CI.
func TestClaimStress(t *testing.T) {
	p := NewPool(4, 400)
	defer p.Close()
	c := newClaimRunner(p)
	c.yield = true
	cells := make([]int64, 96)
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; i < 3000 && time.Now().Before(deadline); i++ {
		switch {
		case i%3 == 0:
			c.post(t, 0, "small")
		case i%7 == 0:
			p.ForkJoinRange(i%32, 96, 2, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					cells[k]++
				}
			})
		default:
			c.post(t, math.MaxInt/1024, "large")
		}
		if i%5 == 0 {
			runtime.Gosched()
		}
	}
	got := p.Counters()
	if got.Inline+got.Published != p.Dispatches() {
		t.Fatalf("counters %+v do not add up to %d dispatches", got, p.Dispatches())
	}
}
