package core

import (
	"fmt"
	"sort"
	"time"

	"raxml/internal/msa"
	"raxml/internal/rapidbs"
	"raxml/internal/search"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// ModelType selects the rate-heterogeneity treatment of an analysis.
type ModelType int

const (
	// GTRCAT is RAxML's per-site rate-category approximation — the model
	// of all benchmark runs in the paper (-m GTRCAT).
	GTRCAT ModelType = iota
	// GTRGAMMA is the 4-category discrete Γ model.
	GTRGAMMA
)

func (m ModelType) String() string {
	if m == GTRGAMMA {
		return "GTRGAMMA"
	}
	return "GTRCAT"
}

// StartTreeCache stores parsimony stepwise-addition starting trees
// keyed by alignment/seed identity — the analysis server's warm cache.
// GetStartTree must return a tree the caller owns outright (searches
// mutate their start tree in place, so implementations clone on both
// Put and Get).
type StartTreeCache interface {
	GetStartTree(key string) (*tree.Tree, bool)
	PutStartTree(key string, t *tree.Tree)
}

// Options configures a comprehensive analysis, mirroring the RAxML
// command line of the paper's runs:
// -m GTRCAT -N <Bootstraps> -p <SeedParsimony> -x <SeedBootstrap> -f a.
type Options struct {
	// Bootstraps is the specified bootstrap count (-N). Each rank runs
	// ceil(Bootstraps/Ranks); see Schedule.
	Bootstraps int
	// Ranks is the number of coarse-grained processes (MPI world size).
	Ranks int
	// Workers is the number of fine-grained workers (Pthreads) per rank.
	Workers int
	// SeedParsimony seeds starting-tree randomization (-p).
	SeedParsimony int64
	// SeedBootstrap seeds column resampling (-x).
	SeedBootstrap int64
	// Model selects GTRCAT (default) or GTRGAMMA.
	Model ModelType
	// Alpha is the initial Γ shape for GTRGAMMA (default 1.0).
	Alpha float64
	// EmpiricalFreqs estimates base frequencies from the data (default
	// behaviour of RAxML) when true.
	EmpiricalFreqs bool

	// Search presets; zero values select the package search defaults.
	FastSettings, SlowSettings, ThoroughSettings *search.Settings
	// BootstrapSettings overrides the per-replicate search preset.
	BootstrapSettings *search.Settings

	// StartTrees, with StartTreeKey, caches the stepwise-addition
	// parsimony starting tree across runs (the analysis server's warm
	// cache for repeat submissions of one alignment). See SearchOn.
	StartTrees StartTreeCache
	// StartTreeKey names this search's starting tree in StartTrees; it
	// must pin everything stepwise addition depends on: the alignment
	// content and the -p seed stream (e.g. "<alignhash>/p123/ml/0").
	StartTreeKey string

	// GlobalFastSort is the Section-2.2 ablation: instead of each rank
	// sorting only its own fast searches (the hybrid code's
	// communication-free choice), all fast results are gathered and
	// sorted globally, and rank r continues with the globally ranked
	// trees r, r+p, r+2p, … — what a communicating implementation would
	// do. Default false reproduces the paper's code.
	GlobalFastSort bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Bootstraps < 1 {
		out.Bootstraps = 100
	}
	if out.Ranks < 1 {
		out.Ranks = 1
	}
	if out.Workers < 1 {
		out.Workers = 1
	}
	if out.SeedParsimony == 0 {
		out.SeedParsimony = 12345
	}
	if out.SeedBootstrap == 0 {
		out.SeedBootstrap = 12345
	}
	if out.Alpha <= 0 {
		out.Alpha = 1.0
	}
	return out
}

// StageTimes records per-stage wall-clock durations of one rank. The
// paper's Figs. 3–4 plot exactly these components (for the last rank to
// finish each stage).
type StageTimes struct {
	Bootstrap, Fast, Slow, Thorough time.Duration
}

// Total returns the summed stage time.
func (s StageTimes) Total() time.Duration {
	return s.Bootstrap + s.Fast + s.Slow + s.Thorough
}

// RankReport describes one rank's work in a finished analysis.
type RankReport struct {
	// Rank is the rank index.
	Rank int
	// Sched is the work partition the rank executed.
	Sched Schedule
	// Times are the rank's stage durations.
	Times StageTimes
	// FastScores are the rank's fast-search log-likelihoods, sorted
	// descending (the local sort of Section 2.2).
	FastScores []float64
	// SlowScores are the rank's slow-search log-likelihoods.
	SlowScores []float64
	// ThoroughScore is the rank's final thorough-search log-likelihood.
	ThoroughScore float64
	// Dispatches counts the rank's fine-grained pool jobs (barrier
	// crossings) over the whole analysis. The traversal-descriptor
	// engine keeps this proportional to traversals rather than to
	// nodes×traversals — the synchronization overhead the paper's
	// Pthreads layer amortizes.
	Dispatches int64
	// Crew splits Dispatches by how the rank's pool ran them (inline,
	// published, helper ranges the master took, wakes). Which goroutine
	// took a range differs run to run: a diagnostic, never a result.
	Crew threads.Counters
	// BootstrapPatterns sums, over the rank's replicates, the patterns each
	// replicate's kernels visited (rapidbs.Replicate.Patterns).
	BootstrapPatterns int
}

// Result is the outcome of a comprehensive analysis.
type Result struct {
	// BestTree is the winning thorough-search topology with optimized
	// branch lengths.
	BestTree *tree.Tree
	// BestLogLikelihood is its score.
	BestLogLikelihood float64
	// BestRank is the rank that produced it.
	BestRank int
	// Support maps the best tree's internal edges to bootstrap support
	// percentages computed over all ranks' replicates.
	Support map[tree.Edge]int
	// TotalBootstraps counts replicates actually performed (Table 2:
	// may exceed the specified count).
	TotalBootstraps int
	// Ranks holds one report per rank.
	Ranks []RankReport
	// Elapsed is the whole analysis wall time.
	Elapsed time.Duration
	// Options echoes the effective configuration.
	Options Options
}

// Run executes a comprehensive analysis: Options.Ranks coarse-grained
// ranks, each with Options.Workers fine-grained workers. Ranks == 1
// reproduces the serial algorithm exactly (the local fast-search sort is
// then the global sort, and exactly one thorough search runs).
func Run(pat *msa.Patterns, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if pat.NumTaxa() < 4 {
		return nil, fmt.Errorf("core: %d taxa, need >= 4", pat.NumTaxa())
	}
	sched := NewSchedule(opts.Ranks, opts.Bootstraps)
	start := time.Now()

	ranks := make([]*analysisRank, opts.Ranks)
	defer func() {
		for _, r := range ranks {
			if r != nil {
				r.pool.Close()
			}
		}
	}()
	first := func(id int) error {
		r, err := newRank(pat, opts, id, nil)
		if err != nil {
			return err
		}
		ranks[id] = &analysisRank{rank: r, rep: RankReport{Rank: id, Sched: sched}}
		return ranks[id].bootstrapAndFast(sched)
	}
	second := func(id int) error { return ranks[id].slowAndThorough() }
	// Section 2.2: the paper's code lets each rank continue with its own
	// best fast trees, so the ranks never meet before the end. Only the
	// GlobalFastSort ablation joins them between the fast and slow stages.
	var join func() error
	if opts.GlobalFastSort {
		join = func() error { return globalSlowStarts(pat, ranks, sched.SlowPerProcess) }
	}
	if err := runPhases(opts.Ranks, first, join, second); err != nil {
		return nil, err
	}

	// The winner's tree reaches the result the way the paper's
	// MPI_Bcast ships it: as a Newick string, whose 10-digit branch
	// lengths are what every output file carries. Support is scored
	// against every rank's replicates on that parsed tree.
	win := bestRank(ranks)
	nw, err := tree.FormatNewick(ranks[win].best, nil)
	if err != nil {
		return nil, err
	}
	bestTree, err := tree.ParseNewick(nw, pat.Names)
	if err != nil {
		return nil, fmt.Errorf("core: reparsing winner tree: %v", err)
	}
	res := &Result{
		BestTree:          bestTree,
		BestLogLikelihood: ranks[win].rep.ThoroughScore,
		BestRank:          win,
		TotalBootstraps:   sched.TotalBootstraps(),
		Options:           opts,
	}
	var reps []*rapidbs.Replicate
	for _, r := range ranks {
		res.Ranks = append(res.Ranks, r.rep)
		reps = append(reps, r.reps...)
	}
	res.Support = rapidbs.SupportCounts(bestTree, reps)
	res.Elapsed = time.Since(start)
	return res, nil
}

// bestRank is MPI_MAXLOC over the thorough scores as a fold: the rank
// with the highest score, ties going to the lower rank.
func bestRank(ranks []*analysisRank) int {
	win := 0
	for i, r := range ranks {
		if r.rep.ThoroughScore > ranks[win].rep.ThoroughScore {
			win = i
		}
	}
	return win
}

// analysisRank is one rank's comprehensive analysis in flight.
type analysisRank struct {
	*rank
	rep        RankReport
	reps       []*rapidbs.Replicate
	fast       []scored // sorted by descending log-likelihood
	slowStarts []*tree.Tree
	best       *tree.Tree // the thorough search's result
}

// bootstrapAndFast runs the rank's rapid bootstraps and its fast ML
// searches on every 5th bootstrap tree, and picks its own best fast
// trees as slow-search starts.
func (r *analysisRank) bootstrapAndFast(sched Schedule) error {
	t0 := time.Now()
	reps, err := r.bootstraps(sched.BootstrapsPerProcess)
	if err != nil {
		return err
	}
	r.rep.Times.Bootstrap = time.Since(t0)
	r.reps = reps
	for _, rp := range reps {
		r.rep.BootstrapPatterns += rp.Patterns
	}

	t0 = time.Now()
	starts := rapidbs.EveryFifth(reps)
	if len(starts) != sched.FastPerProcess {
		return fmt.Errorf("%d fast starts, schedule says %d", len(starts), sched.FastPerProcess)
	}
	settings := settingsOr(r.opts.FastSettings, search.Fast())
	for _, st := range starts {
		res, err := search.Run(r.eng, st, settings)
		if err != nil {
			return err
		}
		r.fast = append(r.fast, scored{res.LogLikelihood, res.Tree.Clone()})
		r.rep.FastScores = append(r.rep.FastScores, res.LogLikelihood)
	}
	// Section 2.2: each rank sorts only its own fast searches.
	sort.Slice(r.fast, func(i, j int) bool { return r.fast[i].ll > r.fast[j].ll })
	sort.Sort(sort.Reverse(sort.Float64Slice(r.rep.FastScores)))
	for _, f := range r.fast[:sched.SlowPerProcess] {
		r.slowStarts = append(r.slowStarts, f.tree.Clone())
	}
	r.rep.Times.Fast = time.Since(t0)
	return nil
}

// slowAndThorough runs the rank's slow searches, then one thorough
// search from its best slow tree (Section 2.1: p thorough searches
// instead of one), and closes the rank's pool.
func (r *analysisRank) slowAndThorough() error {
	t0 := time.Now()
	settings := settingsOr(r.opts.SlowSettings, search.Slow())
	slow := make([]scored, 0, len(r.slowStarts))
	for _, st := range r.slowStarts {
		res, err := search.Run(r.eng, st, settings)
		if err != nil {
			return err
		}
		slow = append(slow, scored{res.LogLikelihood, res.Tree.Clone()})
		r.rep.SlowScores = append(r.rep.SlowScores, res.LogLikelihood)
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].ll > slow[j].ll })
	r.rep.Times.Slow = time.Since(t0)

	t0 = time.Now()
	res, err := search.Run(r.eng, slow[0].tree.Clone(), settingsOr(r.opts.ThoroughSettings, search.Thorough()))
	if err != nil {
		return err
	}
	r.rep.ThoroughScore = res.LogLikelihood
	r.rep.Times.Thorough = time.Since(t0)
	r.rep.Dispatches = r.pool.Dispatches()
	r.rep.Crew = r.pool.Counters()
	r.best = res.Tree
	r.pool.Close()
	return nil
}

// scored pairs a search result with its log-likelihood.
type scored struct {
	ll   float64
	tree *tree.Tree
}

// globalSlowStarts is the communicating variant of Section 2.2 that
// Options.GlobalFastSort selects: every rank's fast results are sorted
// globally, and rank r continues with the globally ranked trees r, r+p,
// r+2p, … Each start is parsed from its Newick, as a gathered tree
// would be.
func globalSlowStarts(pat *msa.Patterns, ranks []*analysisRank, nSlow int) error {
	type entry struct {
		ll          float64
		rank, index int
		newick      string
	}
	var flat []entry
	for _, r := range ranks {
		for i, f := range r.fast {
			nw, err := tree.FormatNewick(f.tree, nil)
			if err != nil {
				return err
			}
			flat = append(flat, entry{f.ll, r.id, i, nw})
		}
	}
	sort.Slice(flat, func(i, j int) bool {
		if flat[i].ll != flat[j].ll {
			return flat[i].ll > flat[j].ll
		}
		if flat[i].rank != flat[j].rank {
			return flat[i].rank < flat[j].rank
		}
		return flat[i].index < flat[j].index
	})
	for _, r := range ranks {
		r.slowStarts = r.slowStarts[:0]
		for i := r.id; i < len(flat) && len(r.slowStarts) < nSlow; i += len(ranks) {
			t, err := tree.ParseNewick(flat[i].newick, pat.Names)
			if err != nil {
				return err
			}
			r.slowStarts = append(r.slowStarts, t)
		}
		// Fewer global trees than this rank's share.
		for len(r.slowStarts) < nSlow {
			r.slowStarts = append(r.slowStarts, r.fast[0].tree.Clone())
		}
	}
	return nil
}
