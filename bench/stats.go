package main

import (
	"math"
	"sort"
	"time"
)

// summary describes the samples of one metric in one run. Value is the
// number the run reports; the rest is printed for the reader.
type summary struct {
	Value            float64
	Median, Min, Max float64
	N                int
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// summarize reports plain sample statistics with the median as value.
func summarize(v []float64) summary {
	s := summary{Value: median(v), Median: median(v), N: len(v), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range v {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}

// summarizeInstances reports the mean over instances of each
// instance's median (see instancesPerRun for why).
func summarizeInstances(perInstance [][]float64) summary {
	var all, meds []float64
	for _, v := range perInstance {
		if len(v) > 0 {
			all = append(all, v...)
			meds = append(meds, median(v))
		}
	}
	s := summarize(all)
	s.Value = mean(meds)
	return s
}

// calibrate times a fixed floating-point loop owned by the benchmark:
// a yardstick for how fast this host is right now, independent of the
// program under test. The loop streams over 8 MiB — beyond a core's
// private caches, like the analyses' likelihood arenas — because on a
// shared host it is cache and memory contention, not arithmetic, that
// comes and goes: a register-only loop read the same while the kernels
// ran 1.6x slower. It returns the fastest of three tries in ms.
func calibrate() float64 {
	buf := make([]float64, 1<<20)
	for i := range buf {
		buf[i] = float64(i&1023) + 1
	}
	best := math.Inf(1)
	for try := 0; try < 3; try++ {
		start := time.Now()
		for pass := 0; pass < 16; pass++ {
			for i := range buf {
				buf[i] = buf[i]*0.9999999 + 0.5
			}
		}
		best = math.Min(best, float64(time.Since(start).Nanoseconds())/1e6)
	}
	calibSink = buf[len(buf)/2]
	return best
}

var calibSink float64
