package grid

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"raxml/internal/core"
	"raxml/internal/fabric"
	"raxml/internal/finegrain"
	"raxml/internal/msa"
	"raxml/internal/search"
	"raxml/internal/seqgen"
)

// testAnalysis builds a small but complete workload: ML starts + rapid
// bootstrap batches + bootstop check + consensus.
func testAnalysis(t testing.TB) *Analysis {
	t.Helper()
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 10, Chars: 400, Seed: 42, TreeScale: 0.5, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	fast := search.Fast()
	return &Analysis{
		Pat: pat,
		Opts: core.Options{
			SeedParsimony:    123,
			SeedBootstrap:    456,
			Workers:          1,
			ThoroughSettings: &fast, // keep ML jobs cheap in tests
		},
		Starts:     2,
		Replicates: 10,
		Batch:      5,
	}
}

// runAnalysis executes the workload over a fresh grid and fleet.
func runAnalysis(t testing.TB, a *Analysis, workers int, cfg Config) (*Result, string) {
	t.Helper()
	var trace bytes.Buffer
	if cfg.Tracer == nil {
		cfg.Tracer = NewTracer(&trace)
	}
	if cfg.Fleet == nil && workers > 0 {
		cfg.Fleet = NewFleet(cfg.Tracer)
		cfg.Fleet.SpawnLocal(workers)
	}
	g := New(cfg)
	res, err := a.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatalf("grid run: %v\ntrace:\n%s", err, trace.String())
	}
	if cfg.Fleet != nil {
		cfg.Fleet.Shutdown()
	}
	return res, trace.String()
}

func checkSameResult(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if got.ConsensusNewick != want.ConsensusNewick {
		t.Errorf("%s: consensus differs\n got %s\nwant %s", label, got.ConsensusNewick, want.ConsensusNewick)
	}
	if d := math.Abs(got.Best.LogLikelihood - want.Best.LogLikelihood); d/math.Abs(want.Best.LogLikelihood) > 1e-10 {
		t.Errorf("%s: best lnL %.12f vs %.12f", label, got.Best.LogLikelihood, want.Best.LogLikelihood)
	}
	if got.Best.Newick != want.Best.Newick {
		t.Errorf("%s: best tree differs", label)
	}
	if len(got.Replicates) != len(want.Replicates) {
		t.Fatalf("%s: %d replicates vs %d", label, len(got.Replicates), len(want.Replicates))
	}
	// Per-replicate likelihoods: the canonicalized reuse chain makes a
	// resumed stream replay the uninterrupted one's trees; lnLs agree to
	// reduction-shape noise (a resume may run on a different stripe
	// count), far below the 1e-10 the acceptance demands of the best lnL.
	for i := range want.Replicates {
		if d := math.Abs(got.Replicates[i].LogLikelihood - want.Replicates[i].LogLikelihood); d/math.Abs(want.Replicates[i].LogLikelihood) > 1e-10 {
			t.Errorf("%s: replicate %d lnL %.12f vs %.12f", label,
				i, got.Replicates[i].LogLikelihood, want.Replicates[i].LogLikelihood)
		}
	}
	if got.BestAnnotated != want.BestAnnotated {
		t.Errorf("%s: support-annotated best tree differs", label)
	}
}

// TestGridMatchesMasterLocal pins the elastic grid against the
// master-local reference: the same workload with zero workers (every
// job on the master's own crew) and with a 3-worker fleet must agree —
// consensus tree exactly, likelihoods at 1e-10 — because per-job seed
// streams make results independent of lease shapes.
func TestGridMatchesMasterLocal(t *testing.T) {
	a := testAnalysis(t)
	want, _ := runAnalysis(t, a, 0, Config{Concurrency: 1})
	if want.ConsensusNewick == "" || len(want.Replicates) != 10 || len(want.Starts) != 2 {
		t.Fatalf("reference run incomplete: %d starts, %d replicates, consensus %q",
			len(want.Starts), len(want.Replicates), want.ConsensusNewick)
	}
	got, trace := runAnalysis(t, a, 3, Config{Concurrency: 2})
	checkSameResult(t, got, want, "fleet-of-3")
	for _, ev := range []string{`"ev":"lease"`, `"ev":"checkpoint"`, `"ev":"bootstop"`} {
		if !strings.Contains(trace, ev) {
			t.Errorf("trace missing %s", ev)
		}
	}
}

// TestGridChaosRestripe is the chaos acceptance on the chan fleet: a
// worker is killed at the 3rd checkpoint (mid-bootstrap, while leased),
// the affected job's pool is re-striped over survivors and resumed from
// its checkpoint, and the final consensus tree and likelihoods are the
// uninterrupted run's at 1e-10.
func TestGridChaosRestripe(t *testing.T) {
	bothCoreSides(t, gridChaosRestripe)
}

// bothCoreSides runs a restripe/resume test once per answer to "who sums
// the Newton derivatives of a leased pool": as built — the workload's
// sumtable is far below finegrain.SumtableGatherLimit, so every lease
// gathers it and the resumed stream's branch lengths no longer depend on
// the survivors' stripe count — and with the distributed core job
// forced, the behaviour before the gather existed.
func bothCoreSides(t *testing.T, test func(*testing.T)) {
	test(t)
	t.Run("distributed core", func(t *testing.T) {
		was := finegrain.SumtableGatherLimit
		finegrain.SumtableGatherLimit = 0
		defer func() { finegrain.SumtableGatherLimit = was }()
		test(t)
	})
}

func gridChaosRestripe(t *testing.T) {
	a := testAnalysis(t)
	want, _ := runAnalysis(t, a, 3, Config{Concurrency: 2})

	var fleet *Fleet
	var trace bytes.Buffer
	tracer := NewTracer(&trace)
	fleet = NewFleet(tracer)
	fleet.SpawnLocal(3)
	killed := false
	cfg := Config{
		Concurrency: 2,
		Fleet:       fleet,
		Tracer:      tracer,
		OnCheckpoint: func(job string, ordinal int) {
			if ordinal == 3 && !killed {
				killed = true
				if _, ok := fleet.Kill(job); !ok {
					t.Error("no worker to kill")
				}
			}
		},
	}
	got, _ := runAnalysis(t, a, 0, cfg)
	if !killed {
		t.Fatal("chaos hook never fired")
	}
	checkSameResult(t, got, want, "chaos")
	tr := trace.String()
	if !strings.Contains(tr, `"ev":"kill"`) || !strings.Contains(tr, `"ev":"rank-dead"`) || !strings.Contains(tr, `"ev":"restripe"`) {
		t.Errorf("trace missing chaos events:\n%s", tr)
	}
	if fleet.NumAlive() != 2 {
		t.Errorf("fleet has %d alive workers, want 2", fleet.NumAlive())
	}
}

// TestGridLateJoin verifies the free-pool admission path: a worker
// admitted while the grid is already running is leased by a later job.
func TestGridLateJoin(t *testing.T) {
	a := testAnalysis(t)
	want, _ := runAnalysis(t, a, 0, Config{Concurrency: 1})

	var trace bytes.Buffer
	tracer := NewTracer(&trace)
	fleet := NewFleet(tracer)
	fleet.SpawnLocal(1)
	cfg := Config{
		Concurrency: 1,
		Fleet:       fleet,
		Tracer:      tracer,
		OnCheckpoint: func(job string, ordinal int) {
			if ordinal == 2 {
				fleet.SpawnLocal(1) // late joiner enters the free pool mid-run
			}
		},
	}
	got, _ := runAnalysis(t, a, 0, cfg)
	checkSameResult(t, got, want, "late-join")
	if fleet.NumAlive() != 2 {
		t.Fatalf("fleet has %d alive workers, want 2", fleet.NumAlive())
	}
	// The joiner (worker 1) must have been leased after admission.
	tr := trace.String()
	if !strings.Contains(tr, `"workers":[0,1]`) && !strings.Contains(tr, `"workers":[1`) {
		t.Errorf("late joiner never leased:\n%s", tr)
	}
}

// TestGridTCPFleet runs the workload over real TCP links — workers dial
// the star listener and serve sessions over loopback, the in-process
// twin of spawned grid worker processes — and must reproduce the
// master-local reference exactly, including after a mid-run kill.
func TestGridTCPFleet(t *testing.T) {
	a := testAnalysis(t)
	want, _ := runAnalysis(t, a, 0, Config{Concurrency: 1})

	ln, err := fabric.ListenStar("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var trace bytes.Buffer
	tracer := NewTracer(&trace)
	fleet := NewFleet(tracer)
	fleet.AcceptFrom(ln)
	for i := 0; i < 3; i++ {
		go func() {
			link, err := fabric.DialStar(ln.Addr(), 0)
			if err != nil {
				t.Error(err)
				return
			}
			finegrain.ServeSessions(link)
		}()
	}
	for fleet.NumAlive() < 3 {
		time.Sleep(time.Millisecond)
	}
	killed := false
	cfg := Config{
		Concurrency: 2,
		Fleet:       fleet,
		Tracer:      tracer,
		OnCheckpoint: func(job string, ordinal int) {
			if ordinal == 3 && !killed {
				killed = true
				if _, ok := fleet.Kill(job); !ok {
					t.Error("no worker to kill")
				}
			}
		},
	}
	got, _ := runAnalysis(t, a, 0, cfg)
	if !killed {
		t.Fatal("chaos hook never fired")
	}
	checkSameResult(t, got, want, "tcp-chaos")
	tr := trace.String()
	if !strings.Contains(tr, `"ev":"rank-dead"`) || !strings.Contains(tr, `"ev":"restripe"`) {
		t.Errorf("trace missing chaos events:\n%s", tr)
	}
}
