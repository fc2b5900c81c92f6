package threads

// ForceAssignment fixes, for every post and fork until cleared, which
// goroutine runs each helper range: bit w of masterMask set hands range w
// to the master, clear pins it on helper w. Every job is then published
// and every publication wakes the crew.
func (p *Pool) ForceAssignment(masterMask uint64) { p.assign.Store(assignOn | masterMask) }

// ClearAssignment returns the pool to the claim protocol.
func (p *Pool) ClearAssignment() { p.assign.Store(0) }

// ParallelFor executes fn once per worker over that worker's pattern
// range as a counted dispatch and returns when all workers finished
// (barrier semantics). fn must only write to data indexed within its
// range or to the per-worker slot it owns.
func (p *Pool) ParallelFor(fn func(worker int, r Range)) {
	p.post(nil, jobClosure, fn)
}

// reduceSum runs fn per worker through ParallelFor and sums the
// per-worker results in worker order with SumSlots.
func (p *Pool) reduceSum(fn func(worker int, r Range) float64) float64 {
	p.ParallelFor(func(w int, r Range) { p.Slot(w)[0] = fn(w, r) })
	return p.SumSlots(0)
}
