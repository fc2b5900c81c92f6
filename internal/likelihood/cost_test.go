package likelihood

import (
	"testing"

	"raxml/internal/threads"
)

// TestCostTableDecisions pins what the committed cost table decides for
// every job of BenchmarkKernelCrossover — every likelihood job code, and
// the full relikelihood beside the plain evaluate — on every shape of the
// -T workloads, without timing: whether the pool publishes the job as
// the engine states it (JobWork) to a hot crew and to a parked one.
// Refitting the table moves these rows; they must then move with the
// sweep that refit it (docs/profiling.md, "The cost table"). Two rows
// are what the table was built for: the wide CAT evaluate, whose
// logarithm the old one-step count hid, and the full wide CAT
// relikelihood, both published to a hot crew.
func TestCostTableDecisions(t *testing.T) {
	type verdict struct{ hot, parked bool }
	want := map[string]verdict{
		"wide/CAT/newview":           {true, false},
		"wide/CAT/evaluate":          {true, false},
		"wide/CAT/relikelihood":      {true, false},
		"wide/CAT/site_ll":           {true, false},
		"wide/CAT/makenewz_setup":    {true, false},
		"wide/CAT/makenewz_core":     {false, false},
		"wide/CAT/makenewz_legacy":   {true, false},
		"wide/CAT/insert_scan":       {true, false},
		"wide/GAMMA/newview":         {true, false},
		"wide/GAMMA/evaluate":        {true, false},
		"wide/GAMMA/relikelihood":    {true, false},
		"wide/GAMMA/site_ll":         {true, false},
		"wide/GAMMA/makenewz_setup":  {true, false},
		"wide/GAMMA/makenewz_core":   {true, false},
		"wide/GAMMA/makenewz_legacy": {true, false},
		"wide/GAMMA/insert_scan":     {true, false},
		"narrow/CAT/newview":         {false, false},
		"narrow/CAT/evaluate":        {false, false},
		"narrow/CAT/relikelihood":    {true, false},
		"narrow/CAT/site_ll":         {false, false},
		"narrow/CAT/makenewz_setup":  {false, false},
		"narrow/CAT/makenewz_core":   {false, false},
		"narrow/CAT/makenewz_legacy": {true, false},
		"narrow/CAT/insert_scan":     {true, false},
	}
	for _, sh := range crossoverShapes {
		for _, job := range crossoverJobs {
			name := sh.name + "/" + job.name
			e, pool, tr := crossoverEngine(t, sh.taxa, sh.chars, sh.gamma)
			code, post := job.ready(t, e, tr)
			var got verdict
			pool.armed, pool.timed = code, func(r threads.JobRunner, code threads.JobCode) {
				w := r.(threads.WorkEstimator).JobWork(code)
				got = verdict{pool.Gain(w, false) > 0, pool.Gain(w, true) > 0}
			}
			post()
			if pool.timed != nil {
				t.Fatalf("%s posted no job %d", name, code)
			}
			if w, ok := want[name]; !ok || got != w {
				t.Errorf("%s: published hot %v, parked %v; want %+v", name, got.hot, got.parked, w)
			}
		}
	}
}
