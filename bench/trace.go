package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// This file is the traced run: it gathers every per-layer metric. The
// in-process probes and the span-recording stage replay live in
// bench/layers — the only part of the benchmark that imports the
// repository's internals — and run as a child process, so this runner
// stays a pure black-box client. The server.*, cli.* and host.* metrics
// are taken here, from the binaries.

// traceResult is one traced run.
type traceResult struct {
	tally
	Workload string
	Metrics  map[string]float64
	SpanFile string
}

// layersReport is what bench/layers prints as its last line.
type layersReport struct {
	Metrics  map[string]float64 `json:"metrics"`
	Failures []string           `json:"failures"`
	Probes   int                `json:"probes"`
}

const outDir = "bench/out"

func (b *bench) traceWorkload(w *workloadDef, seed int64, seconds float64) *traceResult {
	t := &traceResult{Workload: w.Name, Metrics: map[string]float64{}}
	dir := filepath.Join(b.tmp, "trace-"+w.Name)
	defer os.RemoveAll(dir)
	calib0 := calibrate()

	// Inputs: the two alignments the static probes use, and the
	// workload's own alignment for the replay.
	wide, _, err1 := b.prepareInput(inputWide, seed, dir)
	narrow, _, err2 := b.prepareInput(inputNarrow, seed, dir)
	replay, _, err3 := b.prepareInput(w.Input, seed, dir)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Ops++
		t.fail("set-up: %v %v %v", err1, err2, err3)
		return t
	}

	t.Ops++
	if b.layersErr != nil {
		t.fail("bench/layers does not build, its probes are missing: %v", b.layersErr)
	} else {
		os.MkdirAll(outDir, 0o755)
		t.SpanFile = filepath.Join(outDir, "trace-"+w.Name+".json")
		res := runProc(150*time.Second, "", filepath.Join(b.binDir, "layers"),
			"-wide", wide, "-narrow", narrow, "-replay", replay,
			"-model", w.Model, "-threads", strconv.Itoa(w.Threads),
			"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'f', -1, 64),
			"-raxml", b.raxml(), "-run", w.Name, "-spans", t.SpanFile)
		var rep layersReport
		if res.Err != nil {
			t.fail("bench/layers: %v", res.Err)
		} else if err := json.Unmarshal([]byte(lastLine(res.Stdout)), &rep); err != nil {
			t.fail("bench/layers printed no report: %v", err)
		}
		if res.Leftover {
			t.fail("bench/layers left processes running in its group")
		}
		for k, v := range rep.Metrics {
			t.Metrics[k] = v
		}
		t.Ops += rep.Probes
		for _, f := range rep.Failures {
			t.fail("layers: %s", f)
		}
	}

	// server.*: a short serve session, measured from the client side.
	t.Ops++
	s := b.runServeSession(seed, seconds/8, 2, 1)
	if s.Err != nil {
		t.fail("server probe: %v", s.Err)
	}
	for _, rec := range s.Records {
		if rec.Err != nil {
			t.fail("server probe: %s %s submission: %v", rec.Tenant, rec.Kind, rec.Err)
		}
	}
	for k, v := range serverMetrics(s) {
		t.Metrics[k] = v
	}

	// cli.startup_ms: the smallest analysis the tool accepts, a
	// constant offset in every wall_s.
	t.Ops++
	quad, _, err := b.prepareInput(inputQuad, seed, dir)
	var starts []float64
	for i := 0; i < 15 && err == nil; i++ {
		res := runProc(10*time.Second, dir, b.raxml(), "-s", quad, "-n", "quad", "-w", dir, "-f", "d", "-N", "1")
		err = res.Err
		starts = append(starts, res.Wall*1e3)
	}
	if err != nil {
		t.fail("cli start-up probe: %v", err)
	} else {
		t.Metrics["cli.startup_ms"] = median(starts)
	}

	calib1 := calibrate()
	t.Metrics["host.calib_ms"] = calib0
	t.Metrics["host.calib_drift"] = math.Abs(calib1-calib0) / calib0
	for _, m := range perLayer {
		if _, ok := t.Metrics[m.Name]; !ok {
			t.fail("per-layer metric %s was not measured", m.Name)
		}
	}
	return t
}
