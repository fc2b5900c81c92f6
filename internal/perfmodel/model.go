package perfmodel

import (
	"fmt"
	"math"

	"raxml/internal/core"
	"raxml/internal/rng"
)

// loadJitter is the relative spread of individual search costs: searches
// start from different trees and converge after different numbers of
// passes, so stage times vary per rank and "the times shown are those
// for the last process to finish" (paper, Section 5.1). Jitter draws are
// deterministic per (spec, rank, search).
const loadJitter = 0.06

// Spec describes one modeled run.
type Spec struct {
	// Machine is the benchmark computer.
	Machine Machine
	// Data is the data-set cost model.
	Data DataSet
	// Ranks and Threads give the hybrid decomposition; Cores() is their
	// product.
	Ranks, Threads int
	// Bootstraps is the specified -N value.
	Bootstraps int
	// Seed decorrelates jitter across experiments (0 is fine).
	Seed int64
}

// Cores returns the core count of the run.
func (s Spec) Cores() int { return s.Ranks * s.Threads }

// Validate checks the spec against machine limits.
func (s Spec) Validate() error {
	if s.Ranks < 1 || s.Threads < 1 {
		return fmt.Errorf("perfmodel: ranks=%d threads=%d", s.Ranks, s.Threads)
	}
	if s.Threads > s.Machine.CoresPerNode {
		return fmt.Errorf("perfmodel: %d threads exceed %s's %d cores/node",
			s.Threads, s.Machine.Name, s.Machine.CoresPerNode)
	}
	if s.Bootstraps < 1 {
		return fmt.Errorf("perfmodel: bootstraps=%d", s.Bootstraps)
	}
	return nil
}

// Times holds the modeled stage and total durations in seconds.
// Stage values are last-process-to-finish, as the paper reports.
type Times struct {
	Bootstrap, Fast, Slow, Thorough float64
	Total                           float64
}

// Simulate models one run: per-rank work accumulation under the Table-2
// schedule, a barrier after the bootstrap stage (the hybrid code's one
// MPI_Barrier), and no barriers between the last three stages — their
// per-rank times simply add before the final max, exactly the structure
// Figs. 3–4 decompose.
func Simulate(spec Spec) (Times, error) {
	if err := spec.Validate(); err != nil {
		return Times{}, err
	}
	sched := core.NewSchedule(spec.Ranks, spec.Bootstraps)
	speed := spec.Machine.SpeedFactor * spec.Machine.ThreadSpeedup(spec.Threads, spec.Data.Patterns)

	var t Times
	maxBoot, maxRest := 0.0, 0.0
	// Track per-stage maxima separately for the component plots.
	maxFast, maxSlow, maxThorough := 0.0, 0.0, 0.0
	for rank := 0; rank < spec.Ranks; rank++ {
		r := rng.New(spec.Seed ^ int64(rank*7919+1))
		boot := 0.0
		for i := 0; i < sched.BootstrapsPerProcess; i++ {
			boot += spec.Data.BootCost * jitter(r)
		}
		fast := 0.0
		for i := 0; i < sched.FastPerProcess; i++ {
			fast += spec.Data.FastCost * jitter(r)
		}
		slow := 0.0
		for i := 0; i < sched.SlowPerProcess; i++ {
			slow += spec.Data.SlowCost * jitter(r)
		}
		thorough := spec.Data.ThoroughCost * jitter(r)

		boot /= speed
		fast /= speed
		slow /= speed
		thorough /= speed
		if boot > maxBoot {
			maxBoot = boot
		}
		if fast > maxFast {
			maxFast = fast
		}
		if slow > maxSlow {
			maxSlow = slow
		}
		if thorough > maxThorough {
			maxThorough = thorough
		}
		if rest := fast + slow + thorough; rest > maxRest {
			maxRest = rest
		}
	}
	t.Bootstrap = maxBoot
	t.Fast = maxFast
	t.Slow = maxSlow
	t.Thorough = maxThorough
	// Barrier after bootstraps; afterwards ranks run free, so the total
	// adds the slowest rank's *combined* stage-2..4 time, not the sum of
	// per-stage maxima.
	t.Total = maxBoot + maxRest
	return t, nil
}

// jitter returns a deterministic multiplicative load factor.
func jitter(r *rng.RNG) float64 {
	return 1 + loadJitter*(2*r.Float64()-1)
}

// SerialTime returns the modeled serial (1 core, non-MPI, non-threaded)
// run time of a comprehensive analysis on the machine.
func SerialTime(m Machine, d DataSet, bootstraps int) float64 {
	return d.SerialWork(bootstraps) / m.SpeedFactor
}

// Speedup returns SerialTime/total for a simulated spec, the quantity
// plotted in Fig. 1 ("speed normalized to 1 on a single core").
func Speedup(spec Spec) (float64, error) {
	t, err := Simulate(spec)
	if err != nil {
		return 0, err
	}
	return SerialTime(spec.Machine, spec.Data, spec.Bootstraps) / t.Total, nil
}

// Config is one (ranks, threads) decomposition with its modeled time.
type Config struct {
	Ranks, Threads int
	Time           float64
}

// candidateThreads enumerates the thread counts the paper sweeps.
var candidateThreads = []int{1, 2, 4, 8, 16, 32}

// BestConfig returns the fastest (ranks, threads) split of the given
// core count on the machine, scanning the power-of-two thread counts the
// paper uses (threads ≤ cores/node, threads divides cores). This is how
// Table 5's "best time / threads" entries are produced.
func BestConfig(m Machine, d DataSet, cores, bootstraps int, seed int64) (Config, error) {
	if cores < 1 {
		return Config{}, fmt.Errorf("perfmodel: cores=%d", cores)
	}
	best := Config{Time: math.Inf(1)}
	for _, th := range candidateThreads {
		if th > cores || cores%th != 0 || th > m.CoresPerNode {
			continue
		}
		spec := Spec{Machine: m, Data: d, Ranks: cores / th, Threads: th,
			Bootstraps: bootstraps, Seed: seed}
		// The paper's 1-process runs use the Pthreads-only binary and
		// its 1-thread runs the MPI-only binary; the model's overheads
		// already sit inside ThreadSpeedup, so no extra term is needed.
		t, err := Simulate(spec)
		if err != nil {
			return Config{}, err
		}
		if t.Total < best.Time {
			best = Config{Ranks: spec.Ranks, Threads: th, Time: t.Total}
		}
	}
	if math.IsInf(best.Time, 1) {
		return Config{}, fmt.Errorf("perfmodel: no feasible config for %d cores on %s", cores, m.Name)
	}
	return best, nil
}

// Point is one (cores, value) sample of a scaling curve.
type Point struct {
	Cores int
	Value float64
}

// SpeedupCurve returns speedup versus cores at a fixed thread count,
// varying the rank count: one curve of Fig. 1. maxCores bounds the
// sweep.
func SpeedupCurve(m Machine, d DataSet, threads, bootstraps, maxCores int, seed int64) ([]Point, error) {
	var out []Point
	for ranks := 1; ranks*threads <= maxCores; ranks++ {
		spec := Spec{Machine: m, Data: d, Ranks: ranks, Threads: threads,
			Bootstraps: bootstraps, Seed: seed}
		s, err := Speedup(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{Cores: spec.Cores(), Value: s})
	}
	return out, nil
}

// SingleProcessCurve returns speedup versus cores for one rank with a
// growing thread count (the "1 process" curve of Fig. 1: the
// Pthreads-only code).
func SingleProcessCurve(m Machine, d DataSet, bootstraps int, seed int64) ([]Point, error) {
	var out []Point
	for th := 1; th <= m.CoresPerNode; th *= 2 {
		spec := Spec{Machine: m, Data: d, Ranks: 1, Threads: th,
			Bootstraps: bootstraps, Seed: seed}
		s, err := Speedup(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{Cores: th, Value: s})
	}
	return out, nil
}

// StageBreakdown returns the per-stage times versus cores at a fixed
// thread count: the content of Figs. 3–4.
func StageBreakdown(m Machine, d DataSet, threads, bootstraps, maxCores int, seed int64) ([]Times, []int, error) {
	var times []Times
	var cores []int
	for ranks := 1; ranks*threads <= maxCores; ranks++ {
		spec := Spec{Machine: m, Data: d, Ranks: ranks, Threads: threads,
			Bootstraps: bootstraps, Seed: seed}
		t, err := Simulate(spec)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
		cores = append(cores, spec.Cores())
	}
	return times, cores, nil
}

// BestSpeedPerCore returns, for each core count in the sweep, the best
// achievable speed per core normalized to the reference machine's
// serial speed — Fig. 8's metric ("the plotted speed per core is just
// the parallel efficiency normalized to that for Abe").
func BestSpeedPerCore(m, reference Machine, d DataSet, bootstraps int, coreCounts []int, seed int64) ([]Point, error) {
	refCfg, err := BestConfig(reference, d, 1, bootstraps, seed)
	if err != nil {
		return nil, err
	}
	refSerial := refCfg.Time
	var out []Point
	for _, cores := range coreCounts {
		cfg, err := BestConfig(m, d, cores, bootstraps, seed)
		if err != nil {
			continue // core count not decomposable on this machine
		}
		speed := refSerial / cfg.Time // speedup relative to reference serial
		out = append(out, Point{Cores: cores, Value: speed / float64(cores)})
	}
	return out, nil
}
