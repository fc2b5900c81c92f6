package threads

import (
	"math"
	"time"
)

// The cost table: what a job costs on one worker and what it costs to
// share it, the one source of the pool's two decisions — whether a post
// is published to the crew (Gain) and how long a helper spins for the
// next one (spinShare). Fitted on the real kernels by likelihood's
// BenchmarkKernelCrossover, whose inline rows report each code's
// step_ps and whose hot and parked rows report the fixed_ns a post of
// that kind costs beyond its range (the parsimony row by parsimony's
// BenchmarkFitchKernels); the sweep and the fit are in
// docs/profiling.md, "The cost table".

// stepCost is the picoseconds one step of a job code's own kernel takes
// per pattern and CLV category on one worker. A newview step is one
// descriptor entry, and every code's descriptor walk is costed at the
// newview row; an evaluate step carries its per-pattern logarithm; an
// insertion scan states one step per candidate join half plus one; a
// parsimony step is one Fitch view. Each row is the median over the
// sweep's three inputs.
var stepCost = [...]int{
	jobClosure:       0, // states no work: always published
	JobNewview:       4000,
	JobEvaluate:      24000,
	JobMakenewz:      29500,
	JobMakenewzSetup: 10900,
	JobMakenewzCore:  4700,
	JobSiteLL:        28800,
	JobInsertScan:    5300,
	JobParsimony:     1800,
}

// The fixed costs of publishing a post, in nanoseconds, beyond its ranges:
// to a crew whose helpers all spin and hear of it for a cache miss
// (hotCost), and to a crew with a helper asleep on jobCond, which the
// post wakes and which starts late (wakeCost). A post the master runs
// over every range costs its rows alone.
const (
	hotCost  = 2500
	wakeCost = 160000
)

// bankCap bounds the spin bank: the wall time of recent publications a
// crew may still spin for, so a crew whose posts stop — a search that
// ended — parks within it. It spans the longest stretches of serial work
// the master does inside a search: on the threads_wide line a cap of
// 200 µs parked the crew 90–150 times a run, each park leaving the jobs
// after it on the master until one paid for a wake, and 1 ms 5–25 times.
const bankCap = int64(time.Millisecond)

// StepCost returns the picoseconds one step of code's kernel takes per
// pattern and CLV category on one worker: the unit a WorkEstimator
// prices its steps in.
func StepCost(code JobCode) int { return stepCost[code] }

// Gain is the wall time the cost table predicts that publishing a job
// which states work (WorkEstimator) saves over running all its ranges on
// the master, to this crew with a helper parked or with all of them hot:
// the master's inline time less the widest range's and the crossing's.
// The pool publishes a job exactly when its gain is positive (publish).
func (p *Pool) Gain(work int, parked bool) time.Duration {
	cross := hotCost
	if parked {
		cross = wakeCost
	}
	g := float64(work)*float64(p.total-p.widest)/1e3 - float64(cross)
	return time.Duration(min(g, math.MaxInt64/2))
}

// publish is the post rule applied to a spin bank: whether a job that
// states work is published to this crew, a helper parked or all hot, and
// the bank after the post. A published job credits the bank with its
// gain on a hot crew — what a spinning crew saves on a job like it, also
// when this post wakes the crew — up to bankCap.
func (p *Pool) publish(work int, parked bool, bank int64) (bool, int64) {
	if p.Gain(work, parked) <= 0 {
		return false, bank
	}
	return true, min(bank+int64(p.Gain(work, false)), bankCap)
}

// spinShare is how long one of a crew's helpers spins for the next job
// after its range when the spin bank holds bank: an equal share of it
// per helper, and nothing — park at once — when recent publications
// gained less than the crew has spun for them. Karlin et al.'s
// competitive spin (SOSP 1991), paid for by what it buys: a helper spins
// only as long as being awake has been worth to the master.
func spinShare(bank int64, helpers int) time.Duration {
	if bank <= 0 {
		return 0
	}
	return time.Duration(bank / int64(helpers))
}

// spent is what a helper's spin takes from the bank: the time it spun,
// at most the share it was granted. A helper descheduled inside its spin
// (a crew larger than GOMAXPROCS) can see its clock jump past the share;
// the overrun was no spinning, and billing it would leave the bank
// overdrawn and the crew parked until later gains paid it back.
func spent(spun, share time.Duration) int64 {
	return int64(min(spun, share))
}
