package threads

import (
	"math"
	"testing"
	"time"
)

// TestIdleCrewParks requires a crew to fall asleep on jobCond within a
// bounded time of its last job, so a finished search bills no core.
func TestIdleCrewParks(t *testing.T) {
	const workers = 3
	p := NewPool(workers, 300)
	defer p.Close()
	c := newClaimRunner(p)
	for i := 0; i < 50; i++ {
		c.post(t, 1<<30, "published")
	}
	const bound = 2 * time.Second // the bank holds at most bankCap; the rest is slack for a loaded host
	start := time.Now()
	for int(p.parked.Load()) != workers-1 {
		if time.Since(start) > bound {
			t.Fatalf("%d of %d helpers parked %v after the last job", p.parked.Load(), workers-1, bound)
		}
		time.Sleep(50 * time.Microsecond)
	}
	t.Logf("crew parked %v after its last job", time.Since(start))
}

// spinStream is a run of posts as a search makes them, repeated: each
// states work picoseconds per pattern (WorkEstimator) and is followed by
// gap of serial work on the master before the next.
type spinStream []struct {
	work int
	gap  time.Duration
}

// replay runs the spin rule — publish, spinShare and spent, the
// functions post and awaitJob apply — over reps repetitions of s on a
// crew of one helper, hot with a full bank or parked with an empty one,
// and returns how many posts were published and whether the helper is
// parked once the stream's last gap is over. Time is the table's: a
// helper spins from the end of its range until the next publication or
// until its share of the bank is spun, whichever comes first, while the
// master runs inline jobs at their predicted time and then its gaps.
func replay(p *Pool, s spinStream, reps int, hot bool) (published int, parked bool) {
	var bank int64
	if hot {
		bank = bankCap
	}
	parked = !hot
	share := spinShare(bank, 1)
	var idle time.Duration // since the helper's last range
	for i := 0; i < reps*len(s); i++ {
		job := s[i%len(s)]
		if !parked && idle >= share {
			bank -= spent(idle, share)
			parked = true
		}
		var pub bool
		if pub, bank = p.publish(job.work, parked, bank); pub {
			if !parked {
				bank -= spent(idle, share)
			}
			parked, idle = false, 0
			share = spinShare(bank, 1)
			published++
		} else {
			idle += time.Duration(job.work * p.total / 1e3)
		}
		idle += job.gap
	}
	return published, parked || idle >= share
}

// TestSpinRuleParksNarrowKeepsWideHot pins the spin rule as a pure
// function on the two shapes of the -T workloads, each job priced at its
// code's table row, from a hot crew with a full bank and from a parked
// one. On the narrow shape (201 patterns of one category) the one job of
// a branch optimization worth publishing to a hot crew saves about two
// microseconds, while the helper spins through the inline jobs and the
// master's gaps around it: a hot crew spends its bank and parks, and a
// parked crew publishes nothing, since nothing pays for a wake. On the
// wide shape under GAMMA (790 patterns of four categories) an insertion
// scan of 30 candidates wakes a parked crew, and every job of the branch
// optimization that follows saves more than the gap the helper spins
// through: the crew stays hot to the end.
func TestSpinRuleParksNarrowKeepsWideHot(t *testing.T) {
	nv, ev := StepCost(JobNewview), StepCost(JobEvaluate)
	setup, core, scan := StepCost(JobMakenewzSetup), StepCost(JobMakenewzCore), StepCost(JobInsertScan)
	const reps = 1000
	narrow := &Pool{workers: 2, ranges: SplitEven(201, 2)}
	narrow.setShape()
	// One branch optimization: refresh and setup, three Newton
	// iterations, two-entry walks and an evaluate around them.
	narrowStream := spinStream{
		{2*nv + setup, 3 * time.Microsecond},
		{core, 2 * time.Microsecond},
		{core, 2 * time.Microsecond},
		{core, 2 * time.Microsecond},
		{2 * nv, 4 * time.Microsecond},
		{6*nv + ev, 5 * time.Microsecond},
	}
	wide := &Pool{workers: 2, ranges: SplitEven(790, 2)}
	wide.setShape()
	const cats = 4
	wideStream := spinStream{
		{(61 * scan) * cats, 20 * time.Microsecond}, // 30 candidates
		{(2*nv + setup) * cats, 3 * time.Microsecond},
		{core * cats, 2 * time.Microsecond},
		{core * cats, 2 * time.Microsecond},
		{core * cats, 2 * time.Microsecond},
		{(4*nv + ev) * cats, 10 * time.Microsecond},
	}
	for _, hot := range []bool{true, false} {
		if got, parked := replay(narrow, narrowStream, reps, hot); !parked || got > reps/10 {
			t.Errorf("narrow stream, hot start %v: %d of %d posts published, parked %v at the end; want the crew parked and few published",
				hot, got, reps*len(narrowStream), parked)
		}
		if got, parked := replay(wide, wideStream, reps, hot); parked || got != reps*len(wideStream) {
			t.Errorf("wide stream, hot start %v: %d of %d posts published, parked %v at the end; want every post published to a hot crew",
				hot, got, reps*len(wideStream), parked)
		}
	}
}

// TestSpinRuleBankBounds pins the bank's arithmetic: a publication
// credits at most up to bankCap, so the crew spins at most that long
// after its last paying publication, split among its helpers; a spin is
// billed at most its share, however late its helper was scheduled; a
// spent bank spins nobody.
func TestSpinRuleBankBounds(t *testing.T) {
	p := &Pool{workers: 2, ranges: SplitEven(512, 2)}
	p.setShape()
	if pub, got := p.publish(math.MaxInt32, false, bankCap-5); !pub || got != bankCap {
		t.Errorf("publication over the cap: published %v, bank %d; want true, %d", pub, got, bankCap)
	}
	if pub, got := p.publish(0, false, 7); pub || got != 7 {
		t.Errorf("post that states no work: published %v, bank %d; want false, 7", pub, got)
	}
	if got := spinShare(bankCap, 3); got != time.Duration(bankCap/3) {
		t.Errorf("share of a full bank among 3 helpers: %v, want %v", got, time.Duration(bankCap/3))
	}
	if got := spent(5*time.Millisecond, time.Millisecond); got != int64(time.Millisecond) {
		t.Errorf("a 5 ms spin on a 1 ms share is billed %v, want 1ms", time.Duration(got))
	}
	if got := spent(300*time.Microsecond, time.Millisecond); got != int64(300*time.Microsecond) {
		t.Errorf("a 300 µs spin on a 1 ms share is billed %v, want 300µs", time.Duration(got))
	}
	for _, b := range []int64{0, -1} {
		if got := spinShare(b, 1); got != 0 {
			t.Errorf("share of bank %d: %v, want 0", b, got)
		}
	}
}
