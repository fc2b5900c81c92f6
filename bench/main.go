// Command bench is the repository benchmark: six black-box workloads
// over the raxml and mkdata binaries, four end-to-end metrics, and — in
// a separate traced run — per-layer probes and a span-recording stage
// replay (bench/layers). BENCHMARK.json at the repository root names it
// to the driver; README.md in this directory explains every workload
// and metric.
//
// The driver's form, one workload per run, last stdout line a JSON
// result:
//
//	bash bench/run.sh --workload serial_wide --seed 3 --seconds 16 --trace 0
//
// By hand, from the repository root:
//
//	bash bench/run.sh                    # every workload once, end to end
//	bash bench/run.sh -trace 1           # every workload's per-layer metrics
//	bash bench/run.sh -aa                # two sets of the same build, compared
//	bash bench/run.sh -update-reference  # re-pin bench/reference.json
//	bash bench/run.sh -list              # names, as BENCHMARK.json must list them
//
// This package drives only the binaries, their documented flags, their
// output files and the HTTP API; it imports nothing from the
// repository, so it keeps working while the internals are rebuilt.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload  = flag.String("workload", "", "run one workload and print the driver's JSON result as the last line")
		seed      = flag.Int64("seed", 1, "input seed: alignments' permutations, every -p/-x, the submission script")
		seconds   = flag.Float64("seconds", 16, "how long one run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer probes and the traced stage replay")
		list      = flag.Bool("list", false, "print workload and metric names and exit")
		aa        = flag.Bool("aa", false, "run two full sets of the same build and compare them against the bounds in BENCHMARK.json")
		updateRef = flag.Bool("update-reference", false, "re-pin bench/reference.json for seeds 1 and 2")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *list {
		printList()
		return 0
	}
	var only *workloadDef
	if *workload != "" {
		if only = findWorkload(*workload); only == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
	}
	b, err := newBench(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer b.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		b.cleanup()
		os.Exit(130)
	}()
	fmt.Printf("build_s %.3f s (informational: go build of the binaries)\n", b.buildS)

	switch {
	case *updateRef:
		return b.updateReference()
	case *aa:
		return b.runAA(*seed, *seconds)
	case only != nil && *trace == 1:
		t := b.traceWorkload(only, *seed, *seconds)
		printTrace(t)
		return emit(t.Failed == 0, t.Ops, t.Failed, perLayer, func(name string) float64 {
			if v, ok := t.Metrics[name]; ok {
				return v
			}
			return -1 // not measured; the run is reported incorrect
		})
	case only != nil:
		r := b.runWorkload(only, *seed, *seconds)
		printResult(r)
		return emit(r.Failed == 0 && len(r.Metrics) == len(endToEnd), r.Ops, r.Failed, endToEnd, func(name string) float64 { return r.Metrics[name].Value })
	case *trace == 1:
		failed := 0
		for i := range workloads {
			t := b.traceWorkload(&workloads[i], *seed, *seconds)
			printTrace(t)
			failed += t.Failed
		}
		return exitCode(failed)
	default:
		return exitCode(printSet(b.runSet(*seed, *seconds)))
	}
}

func exitCode(failed int) int {
	if failed > 0 {
		return 1
	}
	return 0
}

func (b *bench) runWorkload(w *workloadDef, seed int64, seconds float64) *result {
	if w.Name == "serve_mix" {
		return b.runServeMix(w, seed, seconds)
	}
	return b.runProcessWorkload(w, seed, seconds)
}

func (b *bench) runSet(seed int64, seconds float64) []*result {
	var set []*result
	for i := range workloads {
		r := b.runWorkload(&workloads[i], seed, seconds)
		printResult(r)
		set = append(set, r)
	}
	return set
}

// emit prints the driver's result line. The exit code is 0 whenever a
// result was measured; correctness travels in the line itself.
func emit(correct bool, attempted, failed int, defs []metricDef, value func(string) float64) int {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		metrics[d.Name] = mv{value(d.Name), d.Unit}
	}
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func printList() {
	for _, w := range workloads {
		fmt.Println("workload", w.Name)
	}
	for _, m := range endToEnd {
		fmt.Println("end_to_end", m.Name, m.Unit)
	}
	for _, m := range perLayer {
		fmt.Println("per_layer", m.Name, m.Unit)
	}
}

func printResult(r *result) {
	fmt.Printf("== %s: ops %d, ops_failed %d", r.Workload, r.Ops, r.Failed)
	if r.Noisy {
		fmt.Printf("  [noisy: host.calib_drift %.1f%%]", 100*r.drift())
	}
	fmt.Println()
	for _, f := range r.Failures {
		fmt.Println("   FAILED:", f)
	}
	for _, d := range endToEnd {
		if s, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("   %-12s %10.4f %-3s (median %.4f, min %.4f, max %.4f, n %d)\n", d.Name, s.Value, d.Unit, s.Median, s.Min, s.Max, s.N)
		}
	}
	if w, c := r.Metrics["wall_s"], r.Metrics["cpu_s"]; w.Value > 0 {
		fmt.Printf("   %-12s %10.4f     (derived: cpu_s/wall_s)\n", "busy_cores", c.Value/w.Value)
	}
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   %-12s %10.4f     (informational)\n", k, r.Extra[k])
	}
}

func printTrace(t *traceResult) {
	fmt.Printf("== %s (traced): probes %d, failed %d\n", t.Workload, t.Ops, t.Failed)
	for _, f := range t.Failures {
		fmt.Println("   FAILED:", f)
	}
	for _, d := range perLayer {
		if v, ok := t.Metrics[d.Name]; ok {
			fmt.Printf("   %-44s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if t.SpanFile != "" {
		fmt.Println("   spans:", t.SpanFile)
	}
}

// printSet prints the derived numbers of a full set and returns the
// number of failed ops in it.
func printSet(set []*result) int {
	failed := 0
	byName := map[string]*result{}
	for _, r := range set {
		failed += r.Failed
		byName[r.Workload] = r
	}
	s, k := byName["serial_wide"].Metrics["wall_s"].Value, byName["ranks_wide"].Metrics["wall_s"].Value
	if s > 0 && k > 0 {
		fmt.Printf("derived.speedup_ranks_wide %.4f (wall_s serial_wide %.4f / ranks_wide %.4f)\n", s/k, s, k)
	}
	return failed
}
