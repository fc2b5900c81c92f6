package main

import (
	"strconv"
	"time"
)

// This file is the benchmark's specification: which inputs exist, which
// workloads run over them, and the names and units of every metric.
// BENCHMARK.json at the repository root repeats the names (the driver
// reads that file, not this one) and says why each workload is in the
// set, as does README.md; bench_test.go keeps the names in step.

// inputDef describes one generated alignment. The generator seed is a
// constant of the input, not of the run: the number of distinct site
// patterns — the problem size every kernel scales with — moves by ±30%
// with the random tree mkdata draws (2135..3767 patterns for 20x12000
// over four generator seeds), which would swamp any regression bound.
// A run's -seed instead permutes the rows and columns of the generated
// alignment and supplies every -p/-x seed, so inputs differ per seed
// while the problem size does not.
type inputDef struct {
	Name        string
	Taxa, Chars int
	GenSeed     int64
}

var (
	inputWide   = inputDef{"wide", 20, 3000, 1}
	inputNarrow = inputDef{"narrow", 50, 300, 1}
	inputsTiny  = []inputDef{{"tiny0", 12, 600, 1}, {"tiny1", 12, 600, 2}, {"tiny2", 12, 600, 3}}
	inputQuad   = inputDef{"quad", 4, 60, 1}
)

// workloadDef is one workload: a closed loop of black-box raxml runs.
type workloadDef struct {
	Name string
	// Input is the alignment every rep analyses (unused by serve_mix).
	Input inputDef
	// Args are the analysis flags; the runner appends -s/-n/-w/-p/-x.
	Args []string
	// Model and Threads describe the workload to the traced stage
	// replay, which re-runs its stages in-process.
	Model   string
	Threads int
	// Files are the output files (by RAxML_ prefix) every rep must
	// write; they are compared across reps and against the reference.
	Files []string
	// HasBest says the analysis is a -f a run: it reports a best tree
	// and likelihood, and RAxML_info must show the scheduled bootstrap
	// total performed.
	HasBest bool
	// GridReference says the outputs must equal those of a -grid 0 run
	// of the same seeds.
	GridReference bool
	// Timeout bounds one rep; a rep that exceeds it is a failed op.
	Timeout time.Duration
}

// instancesPerRun is K: every run derives K (-p, -x) seed pairs from
// its seed and its reps walk through them, rep i analysing instance
// i mod K. How long a search runs depends on its seeds (instances of
// threads_wide differ by ~6% standard deviation), which a run of one
// instance would add in full to the host's own noise: so a run covers
// K instances at least once, whatever --seconds says, and a metric is
// the mean over the K instances of each instance's median (medians of
// all reps and trimmed means were no steadier over ten seeds on any
// workload). Reps beyond the first pass repeat instances; reps
// of one instance must agree byte for byte, which is the determinism
// check. K bounds a run from below (K reps, ~2 s each when the host is
// slow), and 4 + 22 x 6 runs must fit the driver's hour: hence 8.
const instancesPerRun = 8

const (
	gridReplicates = 4
	servePasses    = 3 // minimum passes, and the pass after which RSS is read
)

// gridN is gridReplicates as the -N and -grid-batch argument: one
// bootstrap job, a checkpoint per replicate.
var gridN = strconv.Itoa(gridReplicates)

var workloads = []workloadDef{
	{
		Name:  "serial_wide",
		Input: inputWide, Args: []string{"-f", "a", "-m", "GTRCAT", "-N", "10", "-R", "1", "-T", "1"},
		Model: "GTRCAT", Threads: 1, Files: []string{"RAxML_bestTree", "RAxML_bipartitions"}, HasBest: true,
		Timeout: 60 * time.Second,
	},
	{
		Name:  "ranks_wide",
		Input: inputWide, Args: []string{"-f", "a", "-m", "GTRCAT", "-N", "10", "-R", "2", "-T", "1"},
		Model: "GTRCAT", Threads: 1, Files: []string{"RAxML_bestTree", "RAxML_bipartitions"}, HasBest: true,
		Timeout: 60 * time.Second,
	},
	{
		Name:  "threads_wide",
		Input: inputWide, Args: []string{"-f", "a", "-m", "GTRGAMMA", "-N", "4", "-R", "1", "-T", "2"},
		Model: "GTRGAMMA", Threads: 2, Files: []string{"RAxML_bestTree", "RAxML_bipartitions"}, HasBest: true,
		Timeout: 60 * time.Second,
	},
	{
		Name:  "threads_narrow",
		Input: inputNarrow, Args: []string{"-f", "a", "-m", "GTRCAT", "-N", "4", "-R", "1", "-T", "2"},
		Model: "GTRCAT", Threads: 2, Files: []string{"RAxML_bestTree", "RAxML_bipartitions"}, HasBest: true,
		Timeout: 60 * time.Second,
	},
	{
		Name:  "grid_tcp",
		Input: inputWide, Args: []string{"-m", "GTRCAT", "-grid", "1", "-grid-transport", "tcp", "-starts", "0", "-N", gridN, "-grid-batch", gridN},
		Model: "GTRCAT", Threads: 1, Files: []string{"RAxML_bootstrap", "RAxML_GreedyConsensusTree"}, GridReference: true,
		Timeout: 60 * time.Second,
	},
	{
		Name:    "serve_mix",
		Model:   "GTRCAT",
		Threads: 1,
		Input:   inputsTiny[0],
		Timeout: 30 * time.Second,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one metric. Bound is the regression bound of an
// end-to-end metric (share of the parent's median); per-layer metrics
// explain and never gate.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// jobCodes are the thread-pool job codes the traced replay reports,
// in threads.JobCode order (the legacy full-matrix makenewz code is
// never posted by the canonical paths and is left out).
var jobCodes = []string{"newview", "evaluate", "makenewz_setup", "makenewz_core", "site_ll", "insert_scan", "parsimony"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
		{Name: "host.calib_drift", Unit: "ratio", Better: "lower"},
		{Name: "host.two_thread_ratio", Unit: "ratio", Better: "lower"},
		{Name: "msa.parse_compress_ms", Unit: "ms", Better: "lower"},
		{Name: "msa.patterns", Unit: "count", Better: "lower"},
		{Name: "likelihood.relik_ns_per_pattern_node.cat", Unit: "ns", Better: "lower"},
		{Name: "likelihood.relik_ns_per_pattern_node.gamma", Unit: "ns", Better: "lower"},
		{Name: "likelihood.evaluate_ns_per_pattern", Unit: "ns", Better: "lower"},
		{Name: "likelihood.makenewz_us_per_branch", Unit: "us", Better: "lower"},
		{Name: "likelihood.newton_iters_per_branch", Unit: "count", Better: "lower"},
		{Name: "likelihood.avx2_over_scalar", Unit: "ratio", Better: "higher"},
		{Name: "likelihood.relik_gflops_computed", Unit: "GFLOP/s", Better: "higher"},
		{Name: "likelihood.relik_gbps_computed", Unit: "GB/s", Better: "higher"},
		{Name: "likelihood.optimize_all_allocs", Unit: "count", Better: "lower"},
		{Name: "likelihood.relik_alloc_bytes", Unit: "B", Better: "lower"},
		{Name: "likelihood.clv_mb", Unit: "MB", Better: "lower"},
		{Name: "threads.post_empty_ns.t1", Unit: "ns", Better: "lower"},
		{Name: "threads.post_empty_ns.t2", Unit: "ns", Better: "lower"},
		{Name: "threads.relik_speedup_t2.wide", Unit: "ratio", Better: "higher"},
		{Name: "threads.relik_speedup_t2.narrow", Unit: "ratio", Better: "higher"},
		{Name: "threads.dispatches", Unit: "count", Better: "lower"},
	}
	for _, c := range jobCodes {
		m = append(m,
			metricDef{Name: "threads.job." + c + ".count", Unit: "count", Better: "lower"},
			metricDef{Name: "threads.job." + c + ".busy_ms", Unit: "ms", Better: "lower"})
	}
	return append(m,
		metricDef{Name: "threads.post_busy_share", Unit: "ratio", Better: "higher"},
		metricDef{Name: "search.self_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "parsimony.stepwise_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "search.fast_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "search.slow_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "search.thorough_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "rapidbs.replicate_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "consensus.greedy_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "bootstop.wc_test_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "core.stage_bootstrap_s", Unit: "s", Better: "lower"},
		metricDef{Name: "core.stage_fast_s", Unit: "s", Better: "lower"},
		metricDef{Name: "core.stage_slow_s", Unit: "s", Better: "lower"},
		metricDef{Name: "core.stage_thorough_s", Unit: "s", Better: "lower"},
		metricDef{Name: "core.rank_imbalance", Unit: "ratio", Better: "lower"},
		metricDef{Name: "fabric.link_rtt_us.chan", Unit: "us", Better: "lower"},
		metricDef{Name: "fabric.link_rtt_us.tcp", Unit: "us", Better: "lower"},
		metricDef{Name: "fabric.link_mbps.tcp", Unit: "MB/s", Better: "higher"},
		metricDef{Name: "finegrain.relik_over_local.chan", Unit: "ratio", Better: "lower"},
		metricDef{Name: "finegrain.relik_over_local.tcp", Unit: "ratio", Better: "lower"},
		metricDef{Name: "finegrain.warm_eval_us.chan", Unit: "us", Better: "lower"},
		metricDef{Name: "finegrain.warm_eval_us.tcp", Unit: "us", Better: "lower"},
		metricDef{Name: "finegrain.stripe_imbalance", Unit: "ratio", Better: "lower"},
		metricDef{Name: "finegrain.wire_bytes_per_dispatch", Unit: "B", Better: "lower"},
		metricDef{Name: "finegrain.msgs_per_dispatch", Unit: "count", Better: "lower"},
		metricDef{Name: "grid.schedule_us_per_job", Unit: "us", Better: "lower"},
		metricDef{Name: "grid.lease_release_us", Unit: "us", Better: "lower"},
		metricDef{Name: "grid.checkpoints", Unit: "count", Better: "lower"},
		metricDef{Name: "grid.checkpoint_bytes", Unit: "B", Better: "lower"},
		metricDef{Name: "server.submit_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.dedup_hit_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.turnaround_cold_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.turnaround_warm_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.cache_hit_ratio.patterns", Unit: "ratio", Better: "higher"},
		metricDef{Name: "server.cache_hit_ratio.starttree", Unit: "ratio", Better: "higher"},
		metricDef{Name: "server.tenant_fairness", Unit: "ratio", Better: "lower"},
		metricDef{Name: "cli.startup_ms", Unit: "ms", Better: "lower"},
	)
}
