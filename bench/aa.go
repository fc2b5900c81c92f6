package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// runAA runs two full sets of the same build and prints, per metric
// and workload, how far the second set's value is from the first's,
// against the metric's bound in BENCHMARK.json. Two sets of one build
// must agree within the benchmark's own bounds, or the bounds mean
// nothing.
func (b *bench) runAA(seed int64, seconds float64) int {
	bounds := map[string]float64{}
	data, err := os.ReadFile("BENCHMARK.json")
	var spec benchmarkFile
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 1
	}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	fmt.Println("--- set A")
	a := b.runSet(seed, seconds)
	fmt.Println("--- set B")
	c := b.runSet(seed, seconds)
	bad := printSet(a) + printSet(c)
	fmt.Println("--- A/A: (B-A)/A per metric and workload, against the bound")
	for i, ra := range a {
		rb := c[i]
		note := ""
		if ra.Noisy || rb.Noisy {
			note = "  [noisy host: calib drift > 10% in one set]"
		}
		fmt.Printf("%s%s\n", ra.Workload, note)
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			rel := (vb - va) / va
			verdict := "ok"
			if rel > bounds[d.Name] || -rel > bounds[d.Name] {
				verdict = "OUTSIDE BOUND"
				bad++
			}
			fmt.Printf("   %-12s A %10.4f  B %10.4f  %+7.2f%%  bound %4.0f%%  %s\n", d.Name, va, vb, 100*rel, 100*bounds[d.Name], verdict)
		}
	}
	return exitCode(bad)
}

// updateReference re-pins bench/reference.json: for seeds 1 and 2 it
// runs every workload for one pass over its instances and records what
// it observed. A run with a failed check pins nothing.
func (b *bench) updateReference() int {
	b.ref = reference{} // observe, do not compare against the old pins
	next := reference{}
	for _, seed := range []int64{1, 2} {
		for i := range workloads {
			r := b.runWorkload(&workloads[i], seed, 0)
			printResult(r)
			if r.Failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d failed its checks; reference not updated\n", r.Workload, seed)
				return 1
			}
			next.set(r.Workload, seed, r.Outcomes)
		}
	}
	if err := next.save(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("wrote", referencePath)
	return 0
}
