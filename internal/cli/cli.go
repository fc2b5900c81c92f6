// Package cli implements the command-line tools (raxml, mkdata,
// paperbench) as testable functions; the cmd/ mains are thin wrappers.
package cli

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"raxml/internal/consensus"
	"raxml/internal/core"
	"raxml/internal/fabric"
	"raxml/internal/figures"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/seqgen"
	"raxml/internal/support"
	"raxml/internal/tree"
)

// Raxml runs the raxmlHPC-HYBRID-style analysis tool. Supported
// analyses (-f):
//
//	a — comprehensive: rapid bootstraps + full ML search (the paper's
//	    flagship workload; writes bestTree, bipartitions, info files)
//	d — multiple ML searches from random starts (analysis type 1)
//	b — bootstrap replicates only, with majority-rule and greedy
//	    consensus trees (analysis type 2)
//	e — evaluate the fixed topology given with -t (branch lengths and
//	    model optimized, topology unchanged)
//	s — draw support from the -z replicate-tree file onto the -t tree
func Raxml(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("raxml", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		alignFile  = fs.String("s", "", "alignment file (PHYLIP or FASTA)")
		partFile   = fs.String("q", "", "partition file (RAxML -q syntax: one gene per line, each with its own model instance)")
		runName    = fs.String("n", "", "run name used in output file names (default: a deterministic ID derived from the alignment hash and seeds)")
		model      = fs.String("m", "GTRCAT", "model: GTRCAT or GTRGAMMA")
		bootstraps = fs.Int("N", 100, "bootstraps (-f a/b) or searches (-f d)")
		seedP      = fs.Int64("p", 12345, "parsimony / starting tree random seed")
		seedX      = fs.Int64("x", 12345, "rapid bootstrap random seed")
		analysis   = fs.String("f", "a", "analysis: a (comprehensive), d (multi-search), b (bootstraps+consensus), e (evaluate -t), s (support: -t + -z)")
		ranks      = fs.Int("R", 1, "ranks: coarse-grained processes, or the fine-grain grid's rank count with -fine")
		workers    = fs.Int("T", 1, "fine-grained workers (threads) per rank")
		outDir     = fs.String("w", ".", "output directory")
		userTree   = fs.String("t", "", "user tree file (Newick; -f e and -f s)")
		treesFile  = fs.String("z", "", "multi-tree file (one Newick per line; -f s)")

		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile of the analysis to this file; spawned workers write <file>.worker<slot>")
		memProf = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")

		kernels = fs.String("kernels", "auto", "likelihood kernels: auto (best available), scalar (portable reference) or avx2; propagated to spawned workers")

		fine    = fs.Bool("fine", false, "distribute the FINE grain over -R ranks: one likelihood striped over R x T workers (-f e and -f d)")
		fineNet = fs.String("fine-transport", "chan", "fine-grain fabric: chan (in-process ranks) or tcp (spawned worker processes)")

		gridN        = fs.Int("grid", -1, "run the comprehensive analysis on the elastic grid scheduler over this many worker ranks (0 = master-local serial reference)")
		gridNet      = fs.String("grid-transport", "chan", "grid fleet fabric: chan (in-process workers) or tcp (spawned worker processes)")
		gridStarts   = fs.Int("starts", 1, "grid: independent ML searches (-grid mode; -N sets the bootstrap replicates)")
		gridBatch    = fs.Int("grid-batch", 5, "grid: bootstrap replicates per job — the unit of coarse parallelism and checkpointing")
		gridBootstop = fs.Bool("grid-bootstop", false, "grid: treat -N as the per-round increment and add rounds until the WC test converges")
		gridKill     = fs.Int("grid-kill-after", 0, "grid chaos: kill one worker at this checkpoint ordinal (0 = never)")
		gridFault    = fs.Int64("grid-fault-seed", 0, "grid chaos: inject seeded link faults (drops, delays, corruption, severs) on every worker; same seed = same schedules (0 = off)")
		gridWorker   = fs.Bool("grid-worker", false, "internal: run as a spawned grid worker process")
		gridConn     = fs.String("grid-connect", "", "internal: star listener address a grid worker dials")

		serveAddr       = fs.String("serve", "", "run as a long-lived HTTP analysis server on this address (e.g. :8080); the fleet comes from -grid/-grid-transport/-T")
		serveData       = fs.String("serve-data", "raxml-data", "server: data directory for the blob store and the persisted queue")
		serveMaxRunning = fs.Int("serve-max-running", 2, "server: concurrent analyses sharing the fleet")
		serveMaxTenant  = fs.Int("serve-max-per-tenant", 1, "server: concurrent analyses per API key")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Bind the kernel selection before any engine exists — the worker
	// path below builds its engines from wire frames, the master paths
	// build theirs inside the analysis runners.
	if err := likelihood.SetKernelMode(*kernels); err != nil {
		return err
	}
	// Profiling hooks (-cpuprofile/-memprofile): wrap the whole analysis
	// so kernel work — likelihood traversals, makenewz iterations, the
	// wire codec — can be inspected with `go tool pprof` without ad-hoc
	// patches. The CPU profile starts before the worker modes branch off:
	// a master that has one passes `-cpuprofile <file>.worker<slot>` to
	// every worker it spawns, so both halves of a round trip are on
	// record. See docs/profiling.md.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	spawn := workerArgs{kernels: *kernels, cpuProfile: *cpuProf}
	if *gridWorker {
		// Spawned worker mode (-grid and -fine tcp alike): everything
		// arrives over the wire; the usual input-file flags are neither
		// needed nor read.
		return RaxmlGridWorker(*gridConn, os.Stderr)
	}
	if *serveAddr != "" {
		fleetRanks := *gridN
		if fleetRanks < 0 {
			fleetRanks = 0
		}
		return runServe(serveParams{
			addr:         *serveAddr,
			dataDir:      *serveData,
			workers:      fleetRanks,
			transport:    *gridNet,
			threads:      *workers,
			maxRunning:   *serveMaxRunning,
			maxPerTenant: *serveMaxTenant,
			spawn:        spawn,
		}, stdout)
	}
	if *alignFile == "" {
		fs.Usage()
		return fmt.Errorf("missing -s alignment file")
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stdout, "raxml: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is sharp
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stdout, "raxml: -memprofile:", err)
			}
		}()
	}
	var modelType core.ModelType
	switch *model {
	case "GTRCAT":
		modelType = core.GTRCAT
	case "GTRGAMMA":
		modelType = core.GTRGAMMA
	default:
		return fmt.Errorf("unknown model %q (want GTRCAT or GTRGAMMA)", *model)
	}

	data, err := os.ReadFile(*alignFile)
	if err != nil {
		return err
	}
	a, err := msa.Sniff(data)
	if err != nil {
		return err
	}
	var partData []byte
	if *partFile != "" {
		if partData, err = os.ReadFile(*partFile); err != nil {
			return err
		}
	}
	if *runName == "" {
		// No -n: derive the run name deterministically from the content
		// identity (alignment + partition hashes, seeds, and the
		// result-affecting options) — the same derivation the analysis
		// server uses for run IDs, so RAxML_gridTrace.<run>.jsonl and
		// friends land on stable, re-run-safe paths.
		*runName = deriveRunName(data, partData, *model, *gridStarts, *bootstraps,
			*gridBatch, *gridBootstop, *seedP, *seedX)
		if *gridN < 0 {
			*runName = offGridRunName(*runName, *analysis, *ranks, *fine)
		}
		fmt.Fprintf(stdout, "Run name (derived): %s\n", *runName)
	}
	var pat *msa.Patterns
	if *partFile != "" {
		defs, err := msa.ParsePartitionFile(bytes.NewReader(partData))
		if err != nil {
			return err
		}
		pat, err = msa.CompressPartitioned(a, defs)
		if err != nil {
			return err
		}
	} else {
		pat, err = msa.Compress(a)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "Alignment: %d taxa, %d characters, %d distinct patterns\n",
		pat.NumTaxa(), pat.NumChars(), pat.NumPatterns())
	if pat.NumParts() > 1 {
		fmt.Fprintf(stdout, "Partitions (%d, per-partition %s models, linked branch lengths):\n",
			pat.NumParts(), *model)
		for _, pr := range pat.PartRanges() {
			w := 0
			for k := pr.Lo; k < pr.Hi; k++ {
				w += pat.Weights[k]
			}
			fmt.Fprintf(stdout, "  %-12s %d sites, %d patterns\n", pr.Name, w, pr.Len())
		}
	}

	opts := core.Options{
		Bootstraps:     *bootstraps,
		Ranks:          *ranks,
		Workers:        *workers,
		SeedParsimony:  *seedP,
		SeedBootstrap:  *seedX,
		Model:          modelType,
		EmpiricalFreqs: true,
	}

	if *gridN >= 0 {
		return runGrid(pat, opts, gridParams{
			workers:   *gridN,
			transport: *gridNet,
			starts:    *gridStarts,
			batch:     *gridBatch,
			bootstop:  *gridBootstop,
			killAfter: *gridKill,
			faultSeed: *gridFault,
			spawn:     spawn,
		}, *runName, *outDir, stdout)
	}
	if *fine {
		if *analysis != "d" && *analysis != "e" {
			return fmt.Errorf("-fine supports -f e and -f d (got -f %q); the other analyses use the coarse grain", *analysis)
		}
		return runFine(opts.Ranks, *fineNet, spawn, stdout, func(links []fabric.Link) error {
			if *analysis == "e" {
				fmt.Fprintf(stdout, "Fine-grained evaluation: %d ranks x %d workers serve one likelihood\n",
					opts.Ranks, opts.Workers)
				return runEvaluate(pat, opts, links, *userTree, *runName, *outDir, stdout)
			}
			fmt.Fprintf(stdout, "Fine-grained ML searches: %d sequential searches, each over %d ranks x %d workers\n",
				*bootstraps, opts.Ranks, opts.Workers)
			return runMultiSearch(pat, opts, links, *bootstraps, *runName, *outDir, stdout)
		})
	}
	switch *analysis {
	case "a":
		return runComprehensive(pat, opts, *alignFile, *runName, *outDir, stdout)
	case "d":
		fmt.Fprintf(stdout, "Multiple ML searches: %d searches over %d ranks x %d workers\n",
			*bootstraps, opts.Ranks, opts.Workers)
		return runMultiSearch(pat, opts, nil, *bootstraps, *runName, *outDir, stdout)
	case "b":
		return runBootstrapsOnly(pat, opts, *runName, *outDir, stdout)
	case "e":
		return runEvaluate(pat, opts, nil, *userTree, *runName, *outDir, stdout)
	case "s":
		return runSupport(pat, *userTree, *treesFile, *runName, *outDir, stdout)
	default:
		return fmt.Errorf("unsupported -f %q (want a, d, b, e or s)", *analysis)
	}
}

// runEvaluate is -f e: the coarse grain's, or with links the fine
// grain's (-fine).
func runEvaluate(pat *msa.Patterns, opts core.Options, links []fabric.Link, userTree, runName, outDir string, stdout io.Writer) error {
	if userTree == "" {
		return fmt.Errorf("-f e requires -t <tree file>")
	}
	data, err := os.ReadFile(userTree)
	if err != nil {
		return err
	}
	t, err := tree.ParseNewick(strings.TrimSpace(string(data)), pat.Names)
	if err != nil {
		return err
	}
	res, err := core.EvaluateTree(pat, t, opts, links)
	if err != nil {
		return err
	}
	nw, err := tree.FormatNewick(res.Tree, nil)
	if err != nil {
		return err
	}
	outPath := filepath.Join(outDir, "RAxML_result."+runName)
	if err := os.WriteFile(outPath, []byte(nw+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Final log-likelihood: %.6f\n", res.LogLikelihood)
	fmt.Fprintf(stdout, "Tree length:          %.6f\n", res.TreeLength)
	fmt.Fprintf(stdout, "Optimized tree:       %s\n", outPath)
	return nil
}

func runSupport(pat *msa.Patterns, userTree, treesFile, runName, outDir string, stdout io.Writer) error {
	if userTree == "" || treesFile == "" {
		return fmt.Errorf("-f s requires both -t <best tree> and -z <replicate trees>")
	}
	bestData, err := os.ReadFile(userTree)
	if err != nil {
		return err
	}
	best, err := tree.ParseNewick(strings.TrimSpace(string(bestData)), pat.Names)
	if err != nil {
		return err
	}
	repsData, err := os.ReadFile(treesFile)
	if err != nil {
		return err
	}
	reps, err := tree.ParseMultiNewick(string(repsData), pat.Names)
	if err != nil {
		return err
	}
	vals, err := support.Compute(best, reps)
	if err != nil {
		return err
	}
	annotated, err := support.Annotate(best, vals)
	if err != nil {
		return err
	}
	outPath := filepath.Join(outDir, "RAxML_bipartitions."+runName)
	if err := os.WriteFile(outPath, []byte(annotated+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d replicates; mean support %.1f%%, min %d%%\n",
		len(reps), vals.Mean(), vals.Min())
	fmt.Fprintf(stdout, "Annotated tree: %s\n", outPath)
	return nil
}

func runComprehensive(pat *msa.Patterns, opts core.Options, alignFile, runName, outDir string, stdout io.Writer) error {
	sched := core.NewSchedule(opts.Ranks, opts.Bootstraps)
	fmt.Fprintf(stdout, "Schedule: %d ranks x %d workers; per rank: %d bootstraps, %d fast, %d slow, 1 thorough\n",
		opts.Ranks, opts.Workers, sched.BootstrapsPerProcess, sched.FastPerProcess, sched.SlowPerProcess)

	start := time.Now()
	res, err := core.Run(pat, opts)
	if err != nil {
		return err
	}
	best, err := tree.FormatNewick(res.BestTree, nil)
	if err != nil {
		return err
	}
	annotated, err := tree.FormatNewick(res.BestTree, res.Support)
	if err != nil {
		return err
	}
	bestPath := filepath.Join(outDir, "RAxML_bestTree."+runName)
	bipartPath := filepath.Join(outDir, "RAxML_bipartitions."+runName)
	infoPath := filepath.Join(outDir, "RAxML_info."+runName)
	if err := os.WriteFile(bestPath, []byte(best+"\n"), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(bipartPath, []byte(annotated+"\n"), 0o644); err != nil {
		return err
	}
	var info strings.Builder
	fmt.Fprintf(&info, `hybrid comprehensive analysis (%s)
alignment: %s (%d taxa, %d patterns)
ranks: %d  workers/rank: %d
bootstraps specified: %d  performed: %d
best final log-likelihood: %.6f (rank %d)
elapsed: %s
per-rank stage times:
`, opts.Model, alignFile, pat.NumTaxa(), pat.NumPatterns(),
		opts.Ranks, opts.Workers, opts.Bootstraps, res.TotalBootstraps,
		res.BestLogLikelihood, res.BestRank, time.Since(start).Round(time.Millisecond))
	visited := 0
	for _, rep := range res.Ranks {
		fmt.Fprintf(&info, "  rank %d: bootstrap %s, fast %s, slow %s, thorough %s (lnL %.4f)\n",
			rep.Rank,
			rep.Times.Bootstrap.Round(time.Millisecond),
			rep.Times.Fast.Round(time.Millisecond),
			rep.Times.Slow.Round(time.Millisecond),
			rep.Times.Thorough.Round(time.Millisecond),
			rep.ThoroughScore)
		visited += rep.BootstrapPatterns
	}
	if opts.Workers > 1 {
		// Who ran a range differs run to run, so these lines do too.
		info.WriteString("per-rank crew (threads.Pool.Counters):\n")
		for _, rep := range res.Ranks {
			c := rep.Crew
			fmt.Fprintf(&info, "  rank %d: %d dispatches, %d inline, %d published, %d taken, %d wakes\n",
				rep.Rank, rep.Dispatches, c.Inline, c.Published, c.Taken, c.Wakes)
		}
	}
	if res.TotalBootstraps > 0 {
		fmt.Fprintf(&info, "bootstrap patterns visited per replicate: %.2f of %d\n",
			float64(visited)/float64(res.TotalBootstraps), pat.NumPatterns())
	}
	if err := os.WriteFile(infoPath, []byte(info.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Best log-likelihood: %.6f (rank %d)\n", res.BestLogLikelihood, res.BestRank)
	fmt.Fprintf(stdout, "Best tree:           %s\n", bestPath)
	fmt.Fprintf(stdout, "Annotated tree:      %s\n", bipartPath)
	fmt.Fprintf(stdout, "Run info:            %s\n", infoPath)
	return nil
}

// runMultiSearch is -f d: the coarse grain's, or with links the fine
// grain's (-fine).
func runMultiSearch(pat *msa.Patterns, opts core.Options, links []fabric.Link, searches int, runName, outDir string, stdout io.Writer) error {
	res, err := core.RunMultiSearch(pat, searches, opts, links)
	if err != nil {
		return err
	}
	core.SortOutcomes(res.All)
	bestPath := filepath.Join(outDir, "RAxML_bestTree."+runName)
	if err := os.WriteFile(bestPath, []byte(res.Best.Newick+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "searches finished in %s; log-likelihoods:\n", res.Elapsed.Round(time.Millisecond))
	for _, o := range res.All {
		fmt.Fprintf(stdout, "  rank %d search %d: %.4f\n", o.Rank, o.Index, o.LogLikelihood)
	}
	fmt.Fprintf(stdout, "Best log-likelihood: %.6f (rank %d)\n", res.Best.LogLikelihood, res.Best.Rank)
	fmt.Fprintf(stdout, "Best tree:           %s\n", bestPath)
	return nil
}

func runBootstrapsOnly(pat *msa.Patterns, opts core.Options, runName, outDir string, stdout io.Writer) error {
	fmt.Fprintf(stdout, "Bootstrap-only analysis: %d replicates over %d ranks\n",
		opts.Bootstraps, opts.Ranks)
	res, err := core.RunBootstraps(pat, opts)
	if err != nil {
		return err
	}
	var all strings.Builder
	for _, t := range res.Trees {
		nw, err := tree.FormatNewick(t, nil)
		if err != nil {
			return err
		}
		all.WriteString(nw)
		all.WriteByte('\n')
	}
	bsPath := filepath.Join(outDir, "RAxML_bootstrap."+runName)
	if err := os.WriteFile(bsPath, []byte(all.String()), 0o644); err != nil {
		return err
	}
	maj, err := consensus.Majority(res.Trees, 0.5)
	if err != nil {
		return err
	}
	greedy, err := consensus.Greedy(res.Trees)
	if err != nil {
		return err
	}
	majPath := filepath.Join(outDir, "RAxML_MajorityRuleConsensusTree."+runName)
	mrePath := filepath.Join(outDir, "RAxML_GreedyConsensusTree."+runName)
	if err := os.WriteFile(majPath, []byte(maj.Newick()+"\n"), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(mrePath, []byte(greedy.Newick()+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d replicates in %s\n", len(res.Trees), res.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "Replicate trees:      %s\n", bsPath)
	fmt.Fprintf(stdout, "Majority consensus:   %s (%d splits)\n", majPath, maj.NumInternalSplits())
	fmt.Fprintf(stdout, "Greedy consensus:     %s (%d splits)\n", mrePath, greedy.NumInternalSplits())
	return nil
}

// Mkdata runs the synthetic data generator tool.
func Mkdata(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mkdata", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		outDir = fs.String("out", ".", "output directory")
		setIdx = fs.Int("set", -1, "Table-3 data set index 0-4 (-1 = all)")
		taxa   = fs.Int("taxa", 0, "custom: taxa (overrides -set)")
		chars  = fs.Int("chars", 0, "custom: characters (per gene with -genes)")
		seed   = fs.Int64("seed", 1, "custom: generator seed")
		scale  = fs.Float64("scale", 0.5, "custom: tree length scale")
		alpha  = fs.Float64("alpha", 0.8, "custom: rate heterogeneity shape")
		genes  = fs.Int("genes", 1, "custom: genes to concatenate; writes a RAxML -q partition file next to the alignment")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if *taxa > 0 {
		cfg := seqgen.Config{Taxa: *taxa, Chars: *chars, Seed: *seed, TreeScale: *scale, Alpha: *alpha}
		if *genes > 1 {
			base := fmt.Sprintf("multigene_%dx%dx%d", *taxa, *genes, *chars)
			return writeMultiGene(cfg, *genes, filepath.Join(*outDir, base), stdout)
		}
		name := fmt.Sprintf("custom_%dx%d.phy", *taxa, *chars)
		return writeDataSet(cfg, filepath.Join(*outDir, name), 0, stdout)
	}
	for i, d := range seqgen.PaperDataSets() {
		if *setIdx >= 0 && i != *setIdx {
			continue
		}
		name := fmt.Sprintf("ds%d_%dtaxa_%dchars.phy", i, d.Taxa, d.Chars)
		if err := writeDataSet(d.Config, filepath.Join(*outDir, name), d.PaperPatterns, stdout); err != nil {
			return err
		}
	}
	return nil
}

func writeDataSet(cfg seqgen.Config, path string, paperPatterns int, stdout io.Writer) error {
	a, _, err := seqgen.Generate(cfg)
	if err != nil {
		return err
	}
	pat, err := msa.Compress(a)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := msa.WritePHYLIP(f, a); err != nil {
		return err
	}
	if paperPatterns > 0 {
		fmt.Fprintf(stdout, "%s: %d taxa, %d chars, %d patterns (paper: %d)\n",
			path, a.NumTaxa(), a.NumChars(), pat.NumPatterns(), paperPatterns)
	} else {
		fmt.Fprintf(stdout, "%s: %d taxa, %d chars, %d patterns\n",
			path, a.NumTaxa(), a.NumChars(), pat.NumPatterns())
	}
	return nil
}

// writeMultiGene synthesizes a multi-gene alignment: `genes` genes of
// cfg.Chars columns each, evolved on ONE shared true topology (same
// seed, so tree.Random draws the same tree) but under per-gene
// conditions — rate heterogeneity (alpha) and overall rate (tree
// scale) vary deterministically across genes, so a partitioned
// analysis has real per-partition signal to recover. Writes
// <base>.phy and the matching RAxML -q partition file <base>.part.
func writeMultiGene(cfg seqgen.Config, genes int, base string, stdout io.Writer) error {
	var all *msa.Alignment
	var defs []msa.PartitionDef
	lo := 0
	for g := 0; g < genes; g++ {
		gc := cfg
		// Spread gene conditions over a deterministic range: alpha in
		// [0.5, 1.5]x and overall rate in [0.6, 1.4]x of the base.
		f := 0.0
		if genes > 1 {
			f = float64(g) / float64(genes-1)
		}
		gc.Alpha = cfg.Alpha * (0.5 + f)
		gc.TreeScale = cfg.TreeScale * (0.6 + 0.8*f)
		a, _, err := seqgen.Generate(gc)
		if err != nil {
			return err
		}
		if all == nil {
			all = a
		} else {
			for i := range all.Seqs {
				all.Seqs[i] = append(all.Seqs[i], a.Seqs[i]...)
			}
		}
		defs = append(defs, msa.PartitionDef{
			ModelName: "DNA",
			Name:      fmt.Sprintf("gene%d", g),
			Ranges:    []msa.SiteRange{{Lo: lo, Hi: lo + gc.Chars, Stride: 1}},
		})
		lo += gc.Chars
	}
	pat, err := msa.CompressPartitioned(all, defs)
	if err != nil {
		return err
	}
	phy := base + ".phy"
	part := base + ".part"
	f, err := os.Create(phy)
	if err != nil {
		return err
	}
	if err := msa.WritePHYLIP(f, all); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(part, []byte(msa.FormatPartitionFile(defs)), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d taxa, %d genes x %d chars, %d patterns\n",
		phy, all.NumTaxa(), genes, cfg.Chars, pat.NumPatterns())
	fmt.Fprintf(stdout, "%s: partition file (-q)\n", part)
	return nil
}

// Paperbench regenerates all paper artifacts into a directory.
func Paperbench(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		outDir = fs.String("out", "results", "output directory")
		quick  = fs.Bool("quick", false, "CI-scale regeneration")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	arts, err := figures.All(*quick)
	if err != nil {
		return err
	}
	var index strings.Builder
	index.WriteString("Regenerated artifacts (paper: Pfeiffer & Stamatakis 2010)\n")
	fmt.Fprintf(&index, "mode: quick=%v\n\n", *quick)
	for _, a := range arts {
		if err := os.WriteFile(filepath.Join(*outDir, a.ID+".txt"), []byte(a.Text), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*outDir, a.ID+".csv"), []byte(a.CSV), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(&index, "%-12s %s\n", a.ID, a.Title)
		fmt.Fprintf(stdout, "wrote %s\n", filepath.Join(*outDir, a.ID+".txt"))
	}
	fmt.Fprintf(&index, "\nelapsed: %s\n", time.Since(start).Round(time.Millisecond))
	if err := os.WriteFile(filepath.Join(*outDir, "INDEX.txt"), []byte(index.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "done in %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
