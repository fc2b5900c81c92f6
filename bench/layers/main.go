// Command layers holds the benchmark's in-process part: the per-layer
// probes and the traced stage replay. It is the ONLY part of the
// benchmark that imports the repository's internals, and it keeps to
// the surfaces listed in bench/README.md (the stability rule); the
// end-to-end runner starts it as a child process and survives its
// failure to build.
//
// It prints one JSON report as the last line of its standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"time"

	"raxml"
)

// report is the child's answer to the runner.
type report struct {
	Metrics  map[string]float64 `json:"metrics"`
	Failures []string           `json:"failures"`
	Probes   int                `json:"probes"`
}

// env is what every probe sees.
type env struct {
	wide, narrow, replay *raxml.Patterns
	widePath             string
	model                string
	threads              int
	seed                 int64
	// unit scales probe budgets: 1.0 at the benchmark's nominal 16 s.
	unit  float64
	raxml string // binary for spawned TCP workers
	run   string
	spans string
	out   *report
}

func (e *env) set(name string, v float64) { e.out.Metrics[name] = v }

// budget converts a nominal probe duration into this run's.
func (e *env) budget(nominal time.Duration) time.Duration {
	return time.Duration(float64(nominal) * e.unit)
}

func main() {
	var (
		widePath   = flag.String("wide", "", "wide alignment (PHYLIP)")
		narrowPath = flag.String("narrow", "", "narrow alignment (PHYLIP)")
		replayPath = flag.String("replay", "", "the traced workload's alignment (PHYLIP)")
		model      = flag.String("model", "GTRCAT", "the traced workload's model")
		nThreads   = flag.Int("threads", 1, "the traced workload's -T")
		seed       = flag.Int64("seed", 1, "run seed")
		seconds    = flag.Float64("seconds", 16, "the run's measuring time; probe budgets scale with it")
		raxmlBin   = flag.String("raxml", "", "raxml binary, started as -grid-worker for the TCP probes")
		run        = flag.String("run", "", "run id shared by the replay's spans")
		spans      = flag.String("spans", "", "file the replay's spans are written to")
	)
	flag.Parse()
	e := &env{widePath: *widePath, model: *model, threads: *nThreads, seed: *seed, unit: *seconds / 16,
		raxml: *raxmlBin, run: *run, spans: *spans, out: &report{Metrics: map[string]float64{}}}
	var err error
	for _, in := range []struct {
		path string
		dst  **raxml.Patterns
	}{{*widePath, &e.wide}, {*narrowPath, &e.narrow}, {*replayPath, &e.replay}} {
		if *in.dst, err = raxml.LoadAlignment(in.path); err != nil {
			fmt.Fprintln(os.Stderr, "layers:", err)
			os.Exit(1)
		}
	}

	probes := []struct {
		name string
		fn   func(*env) error
	}{
		{"msa", probeMSA},
		{"likelihood", probeLikelihood},
		{"threads", probeThreads},
		{"replay", probeReplay},
		{"core", probeCore},
		{"fabric", probeFabric},
		{"finegrain.chan", func(e *env) error { return probeFinegrain(e, "chan") }},
		{"finegrain.tcp", func(e *env) error { return probeFinegrain(e, "tcp") }},
		{"grid", probeGrid},
	}
	for _, p := range probes {
		e.out.Probes++
		if err := runProbe(p.fn, e); err != nil {
			e.out.Failures = append(e.out.Failures, fmt.Sprintf("%s probe: %v", p.name, err))
		}
	}
	line, _ := json.Marshal(e.out)
	fmt.Println(string(line))
}

// runProbe turns a probe's panic into its failure: one broken layer
// must not cost the other layers' numbers.
func runProbe(fn func(*env) error, e *env) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return fn(e)
}

// measure calls fn back to back for the budget (at least 5 times) and
// returns the median duration of one call in nanoseconds.
func measure(budget time.Duration, fn func()) float64 {
	var samples []float64
	for start := time.Now(); len(samples) < 5 || time.Since(start) < budget; {
		t := time.Now()
		fn()
		samples = append(samples, float64(time.Since(t).Nanoseconds()))
	}
	return median(samples)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
