package grid

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestGridCancelCheckpointResume exercises the cooperative-cancel path
// the analysis server's drain rides on: a grid canceled mid-bootstrap
// unwinds at the next checkpoint boundary with ErrCanceled, returns
// every leased rank to the free pool, and leaves a checkpoint store
// from which a successor grid — seeded via Config.Checkpoints — finishes
// the workload with exactly the uninterrupted run's results.
func TestGridCancelCheckpointResume(t *testing.T) {
	bothCoreSides(t, gridCancelCheckpointResume)
}

func gridCancelCheckpointResume(t *testing.T) {
	a := testAnalysis(t)
	want, _ := runAnalysis(t, a, 0, Config{Concurrency: 1})

	var trace bytes.Buffer
	tracer := NewTracer(&trace)
	fleet := NewFleet(tracer)
	fleet.SpawnLocal(3)
	var g *Grid
	g = New(Config{
		Concurrency: 2,
		Fleet:       fleet,
		Tracer:      tracer,
		OnCheckpoint: func(job string, ordinal int) {
			if ordinal == 2 {
				g.Cancel()
			}
		},
	})
	if _, err := a.Build(g); err != nil {
		t.Fatal(err)
	}
	err := g.Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled run returned %v, want ErrCanceled", err)
	}
	if !g.Canceled() {
		t.Error("Canceled() false after Cancel")
	}
	if !strings.Contains(trace.String(), `"ev":"cancel"`) {
		t.Error("trace missing cancel event")
	}
	cps := g.Checkpoints()
	if len(cps) == 0 {
		t.Fatal("no checkpoints survived the cancel")
	}
	// Every lease must have drained back through the release handshake.
	admitted, alive, free, leased, dead := fleet.Stats()
	if leased != 0 || free != alive {
		t.Fatalf("fleet not drained after cancel: admitted=%d alive=%d free=%d leased=%d dead=%d",
			admitted, alive, free, leased, dead)
	}

	// Successor grid: same fleet, checkpoint-seeded, runs to completion.
	g2 := New(Config{
		Concurrency: 2,
		Fleet:       fleet,
		Tracer:      tracer,
		Checkpoints: cps,
	})
	got, err := a.Build(g2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Run(); err != nil {
		t.Fatalf("resumed run: %v\ntrace:\n%s", err, trace.String())
	}
	fleet.Shutdown()
	checkSameResult(t, got, want, "cancel-resume")
}

// TestGridMaxLeasedRanks pins the admission-control hook: with a rank
// budget of 1 over a 3-worker fleet, no lease may ever exceed one rank,
// and the workload still reproduces the reference exactly (a job whose
// budget is momentarily zero just runs that attempt master-local).
func TestGridMaxLeasedRanks(t *testing.T) {
	a := testAnalysis(t)
	want, _ := runAnalysis(t, a, 0, Config{Concurrency: 1})

	var trace bytes.Buffer
	tracer := NewTracer(&trace)
	var mu sync.Mutex
	var leaseSizes []int
	tracer.Subscribe(func(rec map[string]any) {
		if rec["ev"] == "lease" {
			if ids, ok := rec["workers"].([]int); ok {
				mu.Lock()
				leaseSizes = append(leaseSizes, len(ids))
				mu.Unlock()
			}
		}
	})
	fleet := NewFleet(tracer)
	fleet.SpawnLocal(3)
	got, _ := runAnalysis(t, a, 0, Config{
		Concurrency:    2,
		Fleet:          fleet,
		Tracer:         tracer,
		MaxLeasedRanks: 1,
	})
	checkSameResult(t, got, want, "max-leased-1")
	mu.Lock()
	defer mu.Unlock()
	if len(leaseSizes) == 0 {
		t.Fatal("no leases recorded")
	}
	for i, n := range leaseSizes {
		if n > 1 {
			t.Errorf("lease %d took %d ranks, budget is 1", i, n)
		}
	}
}

// TestTracerFanout covers the sink fan-out: a writer-less tracer carries
// events to sinks, Subscribe adds sinks mid-stream, and the JSONL writer
// keeps writing alongside.
func TestTracerFanout(t *testing.T) {
	var buf bytes.Buffer
	var first, second []string
	tr := NewTracerWith(&buf, func(rec map[string]any) {
		first = append(first, rec["ev"].(string))
	})
	tr.Event("alpha", "j1", nil)
	tr.Subscribe(func(rec map[string]any) {
		second = append(second, rec["ev"].(string))
	})
	tr.Event("beta", "", map[string]any{"k": 1})

	if len(first) != 2 || first[0] != "alpha" || first[1] != "beta" {
		t.Errorf("first sink saw %v, want [alpha beta]", first)
	}
	if len(second) != 1 || second[0] != "beta" {
		t.Errorf("second sink saw %v, want [beta]", second)
	}
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Errorf("writer got %d lines, want 2:\n%s", n, buf.String())
	}

	// Writer-less tracer: sinks only, no panic, valid non-nil tracer.
	var only []string
	tr2 := NewTracerWith(nil, func(rec map[string]any) {
		only = append(only, rec["ev"].(string))
	})
	tr2.Event("gamma", "", nil)
	if len(only) != 1 || only[0] != "gamma" {
		t.Errorf("writer-less tracer sink saw %v, want [gamma]", only)
	}
}
