// Package core implements the paper's primary contribution: the hybrid
// coarse/fine-grained comprehensive phylogenetic analysis — RAxML's
// "-f a" pipeline of rapid bootstraps, fast ML searches, slow ML
// searches and a final thorough search, distributed over coarse-grained
// ranks (goroutines, see ranks.go) each running pattern-parallel
// workers (package threads).
//
// This file holds the work-partitioning rules of Section 2.3 / Table 2:
// each of p ranks performs ceil(N/p) bootstraps, promotes every 5th of
// its local bootstrap trees to a fast search, continues its best
// ceil(10/p) fast results with slow searches, and always runs exactly
// one thorough search (Section 2.1: p thorough searches instead of the
// serial code's single one).
package core

// FastSearchDivisor is the bootstrap-to-fast-search promotion rule:
// every 5th bootstrap tree gets a fast ML search.
const FastSearchDivisor = 5

// SlowSearchTotal is the nominal number of slow searches the serial
// algorithm performs (the 10 best fast searches).
const SlowSearchTotal = 10

// Schedule describes how much work one rank and the whole world perform
// in each stage of a comprehensive analysis. It reproduces Table 2 of
// the paper exactly (verified in tests against every row).
type Schedule struct {
	// Processes is the world size p.
	Processes int
	// SpecifiedBootstraps is the -N value on the command line.
	SpecifiedBootstraps int

	// BootstrapsPerProcess = ceil(N/p): every rank runs the same count,
	// so the total can exceed N (Section 2.3).
	BootstrapsPerProcess int
	// FastPerProcess = ceil(BootstrapsPerProcess/5).
	FastPerProcess int
	// SlowPerProcess = min(FastPerProcess, ceil(10/p)).
	SlowPerProcess int
	// ThoroughPerProcess is always 1 in the MPI code (and 1 in total in
	// the serial code).
	ThoroughPerProcess int
}

// NewSchedule computes the per-rank stage counts for p processes and a
// specified bootstrap count. p and specified must be positive.
func NewSchedule(p, specified int) Schedule {
	if p < 1 {
		p = 1
	}
	if specified < 1 {
		specified = 1
	}
	bpp := ceilDiv(specified, p)
	fpp := ceilDiv(bpp, FastSearchDivisor)
	spp := ceilDiv(SlowSearchTotal, p)
	if spp > fpp {
		spp = fpp
	}
	return Schedule{
		Processes:            p,
		SpecifiedBootstraps:  specified,
		BootstrapsPerProcess: bpp,
		FastPerProcess:       fpp,
		SlowPerProcess:       spp,
		ThoroughPerProcess:   1,
	}
}

// TotalBootstraps returns the number of bootstraps actually performed,
// p·ceil(N/p) >= N.
func (s Schedule) TotalBootstraps() int { return s.Processes * s.BootstrapsPerProcess }

// TotalFast returns the total number of fast ML searches.
func (s Schedule) TotalFast() int { return s.Processes * s.FastPerProcess }

// TotalSlow returns the total number of slow ML searches.
func (s Schedule) TotalSlow() int { return s.Processes * s.SlowPerProcess }

// TotalThorough returns the total number of thorough searches: one per
// rank (the serial code's single search is the p = 1 case).
func (s Schedule) TotalThorough() int { return s.Processes * s.ThoroughPerProcess }

func ceilDiv(a, b int) int { return (a + b - 1) / b }
