package threads

import (
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
	const bound = 2 * time.Second // spinBudget is 200 µs; the rest is slack for a loaded host
	start := time.Now()
	for int(p.parked.Load()) != workers-1 {
		if time.Since(start) > bound {
			t.Fatalf("%d of %d helpers parked %v after the last job", p.parked.Load(), workers-1, bound)
		}
		time.Sleep(50 * time.Microsecond)
	}
	t.Logf("crew parked %v after its last job", time.Since(start))
}
