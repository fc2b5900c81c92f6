// Package perfmodel is the cluster performance model of this
// reproduction: a calibrated, deterministic simulator that regenerates
// the paper's scaling results (Figs. 1–8, Table 5) for runs up to 80
// cores on the four benchmark computers of Table 4 — hardware this
// reproduction cannot allocate.
//
// The model has three layers:
//
//  1. Machine models (this file): per-core speed, cores per node,
//     memory-bandwidth contention, and cache-aggregation superlinearity
//     for Abe, Dash, Ranger and Triton PDAF.
//  2. Data-set cost models (datasets.go): per-search serial costs for
//     the four stages of the comprehensive analysis, calibrated
//     analytically from the paper's own Table 5 anchor times.
//  3. Run simulation (model.go): Table-2 scheduling, per-rank work
//     accumulation with load jitter, barrier after the bootstrap stage,
//     last-process-to-finish semantics for the remaining stages.
//
// Every quantity is deterministic given the run spec, so the figure
// generators and tests are stable.
package perfmodel

import "fmt"

// Machine models one benchmark computer of Table 4.
type Machine struct {
	// Name, Location, Processor and ClockGHz reproduce Table 4.
	Name      string
	Location  string
	Processor string
	ClockGHz  float64
	// CoresPerNode bounds the threads per rank (Table 4's key column).
	CoresPerNode int

	// SpeedFactor is per-core serial speed relative to Dash (= 1.0).
	// Triton's 0.704 is measured directly from Table 5: the 19,436-
	// pattern serial run took 22,970 s on Dash and 32,627 s on Triton.
	// Abe (2.33 GHz Clovertown, no SSE4.2) and Ranger (2.3 GHz
	// Barcelona) are set from the paper's qualitative ordering.
	SpeedFactor float64

	// CacheBoost is the superlinear cache-aggregation amplitude: using
	// more cores brings more aggregate cache. Fig. 8 shows superlinear
	// speedup from 1 to 4 cores on every machine except Dash, whose
	// "newer cache design is more effective" already at one core.
	CacheBoost float64

	// BWSlope and BWSat model memory-bandwidth contention: each thread
	// beyond BWSat adds BWSlope relative overhead. The bus-based
	// Clovertown (Abe) saturates early and hard; Nehalem (Dash) barely.
	BWSlope float64
	BWSat   int
}

// Machines returns the four benchmark computers of Table 4.
func Machines() []Machine {
	return []Machine{
		{
			Name: "Abe", Location: "NCSA", Processor: "2.33-GHz Intel Clovertown",
			ClockGHz: 2.33, CoresPerNode: 8,
			SpeedFactor: 0.58, CacheBoost: 0.25, BWSlope: 0.10, BWSat: 2,
		},
		{
			Name: "Dash", Location: "SDSC", Processor: "2.4-GHz Intel Nehalem",
			ClockGHz: 2.4, CoresPerNode: 8,
			SpeedFactor: 1.00, CacheBoost: 0.0, BWSlope: 0.00625, BWSat: 4,
		},
		{
			Name: "Ranger", Location: "TACC", Processor: "2.3-GHz AMD Barcelona",
			ClockGHz: 2.3, CoresPerNode: 16,
			SpeedFactor: 0.62, CacheBoost: 0.22, BWSlope: 0.035, BWSat: 4,
		},
		{
			Name: "Triton PDAF", Location: "SDSC", Processor: "2.5-GHz AMD Shanghai",
			ClockGHz: 2.5, CoresPerNode: 32,
			SpeedFactor: 0.704, CacheBoost: 0.18, BWSlope: 0.012, BWSat: 4,
		},
	}
}

// MachineByName returns the named machine.
func MachineByName(name string) (Machine, error) {
	for _, m := range Machines() {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("perfmodel: unknown machine %q", name)
}

// syncOverhead is the fine-grained synchronization coefficient σ: each
// parallel region costs σ·T²/patterns relative overhead (T barriers of
// cost ∝ T amortized over patterns/T work per thread). Calibrated from
// Dash's Table-5 ratios for the 1,846-pattern data set (S₄ ≈ 3.7,
// S₈ ≈ 6.1); one global value reproduces all five data sets' optimal
// thread counts within one power of two.
const syncOverhead = 8.35

// ThreadSpeedup returns the modeled fine-grained speedup of one search
// using T threads on this machine for an alignment with the given
// pattern count:
//
//	S(T) = T · boost(T) / (1 + bw(T) + σ·T²/patterns)
//
// boost(T) = 1 + CacheBoost·min(T-1,3)/3 models cache aggregation
// (saturating by 4 threads); bw(T) = BWSlope·max(0, T-BWSat) models
// bandwidth contention. This is the term that makes the optimal thread
// count grow with the pattern count — the paper's central fine-grained
// observation.
func (m Machine) ThreadSpeedup(threads, patterns int) float64 {
	if threads < 1 {
		threads = 1
	}
	if patterns < 1 {
		patterns = 1
	}
	t := float64(threads)
	boostSteps := float64(threads - 1)
	if boostSteps > 3 {
		boostSteps = 3
	}
	boost := 1 + m.CacheBoost*boostSteps/3
	bw := 0.0
	if threads > m.BWSat {
		bw = m.BWSlope * float64(threads-m.BWSat)
	}
	sync := syncOverhead * t * t / float64(patterns)
	return t * boost / (1 + bw + sync)
}
