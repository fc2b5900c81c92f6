package threads

// ForceAssignment fixes, for every post and fork until cleared, which
// goroutine runs each helper range: bit w of masterMask set hands range w
// to the master, clear pins it on helper w. Every job is then published
// and every publication wakes the crew.
func (p *Pool) ForceAssignment(masterMask uint64) { p.assign.Store(assignOn | masterMask) }

// ClearAssignment returns the pool to the claim protocol.
func (p *Pool) ClearAssignment() { p.assign.Store(0) }
