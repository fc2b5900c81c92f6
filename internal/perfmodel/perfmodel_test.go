package perfmodel

import (
	"math"
	"testing"
)

func machine(t *testing.T, name string) Machine {
	t.Helper()
	m, err := MachineByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func dataset(t *testing.T, patterns int) DataSet {
	t.Helper()
	d, err := DataSetByPatterns(patterns)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// within asserts |got-want|/want <= tol.
func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", what)
	}
	if rel := math.Abs(got-want) / math.Abs(want); rel > tol {
		t.Errorf("%s: got %.1f, paper %.1f (%.0f%% off, tolerance %.0f%%)",
			what, got, want, 100*rel, 100*tol)
	}
}

// ---------- Table 4 ----------

func TestMachinesTable4(t *testing.T) {
	ms := Machines()
	if len(ms) != 4 {
		t.Fatalf("%d machines, want 4 (Table 4)", len(ms))
	}
	wantCores := map[string]int{"Abe": 8, "Dash": 8, "Ranger": 16, "Triton PDAF": 32}
	for _, m := range ms {
		if m.CoresPerNode != wantCores[m.Name] {
			t.Errorf("%s: %d cores/node, want %d", m.Name, m.CoresPerNode, wantCores[m.Name])
		}
	}
	if _, err := MachineByName("Kraken"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestDashFastestPerCore(t *testing.T) {
	dash := machine(t, "Dash")
	for _, m := range Machines() {
		if m.Name != "Dash" && m.SpeedFactor >= dash.SpeedFactor {
			t.Errorf("%s per-core speed %.2f >= Dash's %.2f", m.Name, m.SpeedFactor, dash.SpeedFactor)
		}
	}
}

func TestTritonSpeedMatchesMeasuredRatio(t *testing.T) {
	// Table 5: 22,970 s on Dash vs 32,627 s on Triton for the same
	// serial run → per-core ratio 0.704.
	tri := machine(t, "Triton PDAF")
	within(t, "Triton speed factor", tri.SpeedFactor, 22970.0/32627.0, 0.02)
}

// ---------- thread model ----------

func TestOptimalThreadsGrowWithPatterns(t *testing.T) {
	// The paper's central trade-off: at a fixed core count, small data
	// sets prefer fewer threads (more ranks), large ones more threads.
	// Table 5 at 80 cores on Dash: the 348-pattern set is fastest with 4
	// threads, the 19,436-pattern set with 8.
	dash := machine(t, "Dash")
	bestT := func(patterns int) int {
		cfg, err := BestConfig(dash, dataset(t, patterns), 80, 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Threads
	}
	small := bestT(348)
	large := bestT(19436)
	if small > 4 {
		t.Errorf("348 patterns at 80c: optimal threads %d, paper says 4", small)
	}
	if large != 8 {
		t.Errorf("19,436 patterns at 80c: optimal threads %d, paper says 8", large)
	}
	if small > large {
		t.Errorf("optimal threads shrank with patterns: %d -> %d", small, large)
	}
}

func TestThreadSpeedupMonotoneInPatterns(t *testing.T) {
	dash := machine(t, "Dash")
	prev := 0.0
	for _, pats := range []int{348, 1130, 1846, 7429, 19436} {
		s := dash.ThreadSpeedup(8, pats)
		if s < prev {
			t.Fatalf("8-thread speedup decreased with patterns at %d", pats)
		}
		prev = s
	}
}

func TestSuperlinearityFig8(t *testing.T) {
	// Fig. 8: from 1 to 4 cores all machines except Dash show
	// superlinear speedup; Dash is ~linear.
	for _, m := range Machines() {
		eff := m.ThreadSpeedup(4, 19436) / 4
		if m.Name == "Dash" {
			if eff > 1.001 {
				t.Errorf("Dash superlinear at 4 threads (eff %.3f); paper says linear", eff)
			}
			if eff < 0.90 {
				t.Errorf("Dash efficiency %.3f at 4 threads; paper says near-ideal", eff)
			}
		} else if eff <= 1.0 {
			t.Errorf("%s not superlinear at 4 threads (eff %.3f); Fig. 8 shows it is", m.Name, eff)
		}
	}
}

func TestAbeEfficiencyDropsFastest(t *testing.T) {
	// Fig. 8: "efficiency drops off fastest for Abe and then Dash."
	abe := machine(t, "Abe")
	dash := machine(t, "Dash")
	// Relative efficiency loss from 4 to 8 threads.
	drop := func(m Machine) float64 {
		return m.ThreadSpeedup(4, 19436)/4 - m.ThreadSpeedup(8, 19436)/8
	}
	if drop(abe) <= drop(dash) {
		t.Errorf("Abe 4→8 efficiency drop %.3f <= Dash's %.3f", drop(abe), drop(dash))
	}
}

// ---------- run simulation against Table 5 anchors ----------

func TestSerialTimesMatchTable5(t *testing.T) {
	dash := machine(t, "Dash")
	anchors := []struct {
		patterns, n int
		want        float64
	}{
		{348, 100, 1980}, {348, 1200, 15703},
		{1130, 100, 2325}, {1130, 650, 10566},
		{1846, 100, 9630}, {1846, 550, 33738},
		{7429, 100, 72866}, {7429, 700, 355724},
		{19436, 100, 22970},
	}
	for _, a := range anchors {
		d := dataset(t, a.patterns)
		within(t, d.Name()+" serial", SerialTime(dash, d, a.n), a.want, 0.02)
	}
	// Triton serial for the largest set.
	tri := machine(t, "Triton PDAF")
	within(t, "Triton 19,436 serial", SerialTime(tri, dataset(t, 19436), 100), 32627, 0.02)
}

func TestModeledTimesMatchTable5Rows(t *testing.T) {
	// Rows NOT used to fit the cost models, within 20%.
	dash := machine(t, "Dash")
	rows := []struct {
		patterns, cores, n int
		want               float64
	}{
		{1846, 16, 100, 846},
		{1846, 40, 100, 430},
		{7429, 16, 100, 5497},
		{7429, 40, 100, 2830},
		{19436, 16, 100, 2006},
		{19436, 8, 100, 3018},
		{348, 16, 100, 307},
		{348, 40, 100, 168},
		{1130, 16, 100, 283},
	}
	for _, row := range rows {
		d := dataset(t, row.patterns)
		cfg, err := BestConfig(dash, d, row.cores, row.n, 0)
		if err != nil {
			t.Fatal(err)
		}
		within(t, d.Name()+" best time", cfg.Time, row.want, 0.20)
	}
}

func TestHeadlineSpeedups(t *testing.T) {
	// Abstract: 218-taxa set, 80 cores, 10x8 → speedup ~35 vs serial.
	dash := machine(t, "Dash")
	d := dataset(t, 1846)
	s, err := Speedup(Spec{Machine: dash, Data: d, Ranks: 10, Threads: 8, Bootstraps: 100})
	if err != nil {
		t.Fatal(err)
	}
	within(t, "1846-pattern 80c speedup", s, 35.5, 0.15)

	// Abstract: 19,436-pattern set on Triton, 2x32 on 64 cores →
	// speedup ~38 vs Triton serial.
	tri := machine(t, "Triton PDAF")
	d5 := dataset(t, 19436)
	spec := Spec{Machine: tri, Data: d5, Ranks: 2, Threads: 32, Bootstraps: 100}
	tt, err := Simulate(spec)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "Triton 64c speedup", SerialTime(tri, d5, 100)/tt.Total, 38.5, 0.20)
}

func TestHybridBeatsPthreadsOnlyOnOneNode(t *testing.T) {
	// Section 5.1: on one 8-core Dash node, 2 ranks x 4 threads beats
	// 8 threads (Pthreads-only) and 8 ranks x 1 thread (MPI-only).
	dash := machine(t, "Dash")
	d := dataset(t, 1846)
	time := func(ranks, threads int) float64 {
		tt, err := Simulate(Spec{Machine: dash, Data: d, Ranks: ranks, Threads: threads, Bootstraps: 100})
		if err != nil {
			t.Fatal(err)
		}
		return tt.Total
	}
	hybrid := time(2, 4)
	pthreadsOnly := time(1, 8)
	mpiOnly := time(8, 1)
	if hybrid >= pthreadsOnly {
		t.Errorf("2x4 (%.0f s) not faster than 1x8 (%.0f s)", hybrid, pthreadsOnly)
	}
	if hybrid >= mpiOnly {
		t.Errorf("2x4 (%.0f s) not faster than 8x1 (%.0f s)", hybrid, mpiOnly)
	}
}

func TestThoroughStageFlatAcrossRanks(t *testing.T) {
	// Figs. 3-4: the thorough stage time is roughly constant with rank
	// count (no MPI speedup), while the first three stages shrink.
	dash := machine(t, "Dash")
	d := dataset(t, 1846)
	t1, err := Simulate(Spec{Machine: dash, Data: d, Ranks: 1, Threads: 8, Bootstraps: 100})
	if err != nil {
		t.Fatal(err)
	}
	t10, err := Simulate(Spec{Machine: dash, Data: d, Ranks: 10, Threads: 8, Bootstraps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(t10.Thorough-t1.Thorough) / t1.Thorough; rel > 0.15 {
		t.Errorf("thorough stage changed %.0f%% from 1 to 10 ranks; paper says flat", rel*100)
	}
	if t10.Bootstrap > t1.Bootstrap/5 {
		t.Errorf("bootstrap stage %.0f s at 10 ranks vs %.0f s at 1; want ~10x shrink",
			t10.Bootstrap, t1.Bootstrap)
	}
}

func TestThoroughFasterWithMoreThreads(t *testing.T) {
	// Figs. 3 vs 4: thorough time with 4 threads is almost twice that
	// with 8 threads (for the 1,846-pattern set).
	dash := machine(t, "Dash")
	d := dataset(t, 1846)
	t4, _ := Simulate(Spec{Machine: dash, Data: d, Ranks: 10, Threads: 4, Bootstraps: 100})
	t8, _ := Simulate(Spec{Machine: dash, Data: d, Ranks: 10, Threads: 8, Bootstraps: 100})
	ratio := t4.Thorough / t8.Thorough
	if ratio < 1.3 || ratio > 2.3 {
		t.Errorf("thorough 4-thread/8-thread ratio %.2f; paper says ~2", ratio)
	}
}

func TestEfficiencyBumpAt40And80Cores(t *testing.T) {
	// Fig. 2: efficiency at 40/80 cores (5/10 ranks) beats 32/64 cores
	// (4/8 ranks) because 5 and 10 divide the schedule evenly.
	dash := machine(t, "Dash")
	d := dataset(t, 1846)
	eff := func(ranks int) float64 {
		spec := Spec{Machine: dash, Data: d, Ranks: ranks, Threads: 8, Bootstraps: 100}
		s, err := Speedup(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s / float64(spec.Cores())
	}
	if eff(5) <= eff(4) {
		t.Errorf("efficiency at 40c (%.3f) not above 32c (%.3f)", eff(5), eff(4))
	}
	if eff(10) <= eff(8) {
		t.Errorf("efficiency at 80c (%.3f) not above 64c (%.3f)", eff(10), eff(8))
	}
}

func TestTritonOvertakesDashAtHighCores(t *testing.T) {
	// Fig. 8 discussion: "Dash is fastest up to 16 cores, Triton PDAF
	// becomes faster at higher core counts" (19,436-pattern set).
	dash := machine(t, "Dash")
	tri := machine(t, "Triton PDAF")
	d := dataset(t, 19436)
	best := func(m Machine, cores int) float64 {
		cfg, err := BestConfig(m, d, cores, 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Time
	}
	if best(dash, 8) >= best(tri, 8) {
		t.Errorf("Dash (%.0f s) not faster than Triton (%.0f s) at 8 cores", best(dash, 8), best(tri, 8))
	}
	if best(dash, 16) >= best(tri, 16) {
		t.Errorf("Dash (%.0f s) not faster than Triton (%.0f s) at 16 cores", best(dash, 16), best(tri, 16))
	}
	if best(tri, 64) >= best(dash, 64) {
		t.Errorf("Triton (%.0f s) not faster than Dash (%.0f s) at 64 cores", best(tri, 64), best(dash, 64))
	}
}

func TestRecommendedBootstrapsImproveScaling(t *testing.T) {
	// Section 5.2: with the larger recommended bootstrap counts, scaling
	// improves (more of the run lives in the MPI-parallel stages).
	dash := machine(t, "Dash")
	for _, patterns := range []int{348, 1130, 1846, 7429} {
		d := dataset(t, patterns)
		s100, err := Speedup(Spec{Machine: dash, Data: d, Ranks: 10, Threads: 8, Bootstraps: 100})
		if err != nil {
			t.Fatal(err)
		}
		sRec, err := Speedup(Spec{Machine: dash, Data: d, Ranks: 10, Threads: 8, Bootstraps: d.RecommendedBootstraps})
		if err != nil {
			t.Fatal(err)
		}
		if sRec <= s100 {
			t.Errorf("%s: speedup with recommended N (%.1f) not above N=100 (%.1f)",
				d.Name(), sRec, s100)
		}
	}
}

func TestHighestAbsoluteSpeedup(t *testing.T) {
	// Section 5.2: the fourth data set at N=700 reaches speedup ~57 on
	// 80 cores (run time drops from >4 days to <1.8 h).
	dash := machine(t, "Dash")
	d := dataset(t, 7429)
	cfg, err := BestConfig(dash, d, 80, 700, 0)
	if err != nil {
		t.Fatal(err)
	}
	speedup := SerialTime(dash, d, 700) / cfg.Time
	within(t, "7429-pattern N=700 80c speedup", speedup, 56.7, 0.20)
	if cfg.Time > 1.8*3600 {
		t.Errorf("80c run %.0f s, paper says under 1.8 hours", cfg.Time)
	}
	if serial := SerialTime(dash, d, 700); serial < 4*86400 {
		t.Errorf("serial run %.0f s, paper says more than 4 days", serial)
	}
}

func TestSpecValidation(t *testing.T) {
	dash := machine(t, "Dash")
	d := dataset(t, 348)
	if _, err := Simulate(Spec{Machine: dash, Data: d, Ranks: 1, Threads: 16, Bootstraps: 100}); err == nil {
		t.Error("16 threads on an 8-core node accepted")
	}
	if _, err := Simulate(Spec{Machine: dash, Data: d, Ranks: 0, Threads: 1, Bootstraps: 100}); err == nil {
		t.Error("0 ranks accepted")
	}
	if _, err := Simulate(Spec{Machine: dash, Data: d, Ranks: 1, Threads: 1, Bootstraps: 0}); err == nil {
		t.Error("0 bootstraps accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	dash := machine(t, "Dash")
	d := dataset(t, 1846)
	spec := Spec{Machine: dash, Data: d, Ranks: 10, Threads: 8, Bootstraps: 100, Seed: 42}
	t1, _ := Simulate(spec)
	t2, _ := Simulate(spec)
	if t1 != t2 {
		t.Fatal("simulation not deterministic")
	}
}

func TestCurvesShapes(t *testing.T) {
	dash := machine(t, "Dash")
	d := dataset(t, 1846)
	curve, err := SpeedupCurve(dash, d, 8, 100, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 10 {
		t.Fatalf("8-thread curve has %d points, want 10 (8..80 cores)", len(curve))
	}
	// Speedup grows with cores along the curve.
	for i := 1; i < len(curve); i++ {
		if curve[i].Value < curve[i-1].Value*0.95 {
			t.Fatalf("speedup curve non-increasing at %d cores", curve[i].Cores)
		}
	}
	sp, err := SingleProcessCurve(dash, d, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp) != 4 { // 1,2,4,8 threads
		t.Fatalf("single-process curve has %d points, want 4", len(sp))
	}
	for _, p := range curve {
		if eff := p.Value / float64(p.Cores); eff > 1.2 {
			t.Fatalf("efficiency %.2f at %d cores implausible", eff, p.Cores)
		}
	}
}

func TestBestSpeedPerCoreNormalization(t *testing.T) {
	abe := machine(t, "Abe")
	d := dataset(t, 19436)
	pts, err := BestSpeedPerCore(abe, abe, d, 100, []int{1, 2, 4, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	// At 1 core, Abe normalized to itself must be ~1.
	if math.Abs(pts[0].Value-1) > 0.01 {
		t.Fatalf("Abe 1-core normalized speed %.3f, want 1", pts[0].Value)
	}
}

func BenchmarkSimulate(b *testing.B) {
	dash, _ := MachineByName("Dash")
	d, _ := DataSetByPatterns(1846)
	spec := Spec{Machine: dash, Data: d, Ranks: 10, Threads: 8, Bootstraps: 100}
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestConfig(b *testing.B) {
	dash, _ := MachineByName("Dash")
	d, _ := DataSetByPatterns(1846)
	for i := 0; i < b.N; i++ {
		if _, err := BestConfig(dash, d, 80, 100, 0); err != nil {
			b.Fatal(err)
		}
	}
}
