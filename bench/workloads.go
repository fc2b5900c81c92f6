package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// bench is one invocation's state: where the binaries and the scratch
// directory are, and the pinned reference.
type bench struct {
	binDir string // .bench_build/bin
	tmp    string // .bench_build/run-<pid>, removed on exit
	ref    reference
	buildS float64
	// layersErr is why bench/layers could not be built (nil: it was).
	layersErr error
}

const buildDir = ".bench_build"

// newBench builds cmd/raxml and cmd/mkdata from the checkout the
// benchmark was started in and prepares the scratch directory.
func newBench(withLayers bool) (*bench, error) {
	if _, err := os.Stat("cmd/raxml"); err != nil {
		return nil, fmt.Errorf("not at the root of the repository (no cmd/raxml here): run the benchmark from the repository root")
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	b := &bench{binDir: filepath.Join(root, buildDir, "bin"), ref: loadReference()}
	start := time.Now()
	if out, err := exec.Command("go", "build", "-o", b.binDir+string(os.PathSeparator), "./cmd/raxml", "./cmd/mkdata").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/raxml ./cmd/mkdata: %v\n%s", err, out)
	}
	if withLayers {
		// bench/layers is the only part that imports the repository's
		// internals. When a later change breaks it, the end-to-end part
		// must still run, so its build failure is recorded, not fatal.
		if out, err := exec.Command("go", "build", "-C", "bench", "-o", filepath.Join(b.binDir, "layers"), "./layers").CombinedOutput(); err != nil {
			b.layersErr = fmt.Errorf("go build ./layers: %v\n%s", err, out)
		}
	}
	b.buildS = time.Since(start).Seconds()
	b.tmp = filepath.Join(root, buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.tmp, 0o755); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) cleanup() {
	killAllGroups()
	os.RemoveAll(b.tmp)
}

func (b *bench) raxml() string  { return filepath.Join(b.binDir, "raxml") }
func (b *bench) mkdata() string { return filepath.Join(b.binDir, "mkdata") }

// tally counts a run's ops and keeps the first few failure messages.
type tally struct {
	Ops      int
	Failed   int
	Failures []string
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Failures) < 8 {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

// result is one run of one workload.
type result struct {
	tally
	Workload string
	Metrics  map[string]summary
	// CalibMS brackets the run with the host yardstick; Noisy marks a
	// run during which it moved by more than 10%.
	CalibMS [2]float64
	Noisy   bool
	// Outcomes are the run's observed outcomes in reference form.
	Outcomes []*outcome
	// Extra holds informational numbers printed but never gated.
	Extra map[string]float64
}

func (r *result) drift() float64 {
	return math.Abs(r.CalibMS[1]-r.CalibMS[0]) / r.CalibMS[0]
}

// generate runs mkdata for one input and returns the generated file's
// bytes. The file name is mkdata's documented custom_<taxa>x<chars>.phy.
func (b *bench) generate(in inputDef, dir string) ([]byte, error) {
	res := runProc(30*time.Second, "", b.mkdata(), "-out", dir,
		"-taxa", strconv.Itoa(in.Taxa), "-chars", strconv.Itoa(in.Chars), "-seed", strconv.FormatInt(in.GenSeed, 10))
	if res.Err != nil {
		return nil, fmt.Errorf("mkdata %s: %v", in.Name, res.Err)
	}
	return os.ReadFile(filepath.Join(dir, fmt.Sprintf("custom_%dx%d.phy", in.Taxa, in.Chars)))
}

// prepareInput generates one input and writes its seed-permuted form
// to <dir>/<name>.phy, returning that path.
func (b *bench) prepareInput(in inputDef, seed int64, dir string) (string, *alignment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	data, err := b.generate(in, dir)
	if err != nil {
		return "", nil, err
	}
	a, err := parsePhylip(data)
	if err != nil {
		return "", nil, err
	}
	a = a.permuted(derive(seed, "input/"+in.Name, 0))
	path := filepath.Join(dir, in.Name+".phy")
	return path, a, os.WriteFile(path, a.bytes(), 0o644)
}

// setupReps is how often a run repeats its set-up; setup_s is the
// median. A single mkdata start is too short to time once, and its
// time is bimodal (5.9 or 7.5 ms for wide, by whether the Go runtime
// fits a collection into so short a life), so the median needs enough
// samples not to flip between the modes from run to run.
const setupReps = 31

// runProcessWorkload is the closed loop of a process workload: set up
// the input, then run reps back to back — rep i analyses instance
// i mod K — until the time is used, checking every rep.
func (b *bench) runProcessWorkload(w *workloadDef, seed int64, seconds float64) *result {
	r := &result{Workload: w.Name, Metrics: map[string]summary{}, Extra: map[string]float64{}}
	dir := filepath.Join(b.tmp, w.Name)
	defer os.RemoveAll(dir)

	var setups []float64
	var input string
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		path, _, err := b.prepareInput(w.Input, seed, dir)
		if err != nil {
			r.Ops++
			r.fail("set-up: %v", err)
			return r
		}
		setups = append(setups, time.Since(start).Seconds())
		input = path
	}
	r.Metrics["setup_s"] = summarize(setups)

	insts := instancesFor(w.Name, seed)
	pinned := b.ref.lookup(w.Name, seed)
	first := make([]*outcome, len(insts))
	wall := make([][]float64, len(insts))
	cpu := make([][]float64, len(insts))
	rss := make([][]float64, len(insts))
	var all []float64
	keep := "" // instance 0's first output directory, kept for the post-checks

	r.CalibMS[0] = calibrate()
	start := time.Now()
	for i := 0; ; i++ {
		k := i % len(insts)
		if i >= len(insts) && time.Since(start).Seconds()+0.5*median(all) > seconds {
			break
		}
		run := fmt.Sprintf("i%dr%d", k, i)
		out := filepath.Join(dir, run)
		if err := os.MkdirAll(out, 0o755); err != nil {
			r.Ops++
			r.fail("%v", err)
			break
		}
		args := append([]string{"-s", input, "-n", run, "-w", out,
			"-p", strconv.FormatInt(insts[k].P, 10), "-x", strconv.FormatInt(insts[k].X, 10)}, w.Args...)
		res := runProc(w.Timeout, out, b.raxml(), args...)
		r.Ops++
		all = append(all, res.Wall)
		o, err := b.checkRep(w, res, out, run)
		if err == nil && first[k] != nil {
			err = o.sameAs(first[k])
		}
		if err == nil && first[k] == nil && pinned != nil {
			err = o.matches(pinned[k])
		}
		if err != nil {
			r.fail("rep %d (instance %d): %v", i, k, err)
		} else {
			wall[k] = append(wall[k], res.Wall)
			cpu[k] = append(cpu[k], res.CPU)
			rss[k] = append(rss[k], res.RSSMB)
			if first[k] == nil {
				first[k] = o
			}
		}
		if k == 0 && keep == "" && err == nil {
			keep = out
		} else {
			os.RemoveAll(out)
		}
	}
	r.CalibMS[1] = calibrate()
	r.Noisy = r.drift() > 0.10
	r.Metrics["wall_s"] = summarizeInstances(wall)
	r.Metrics["cpu_s"] = summarizeInstances(cpu)
	r.Metrics["peak_rss_mb"] = summarizeInstances(rss)
	r.Outcomes = first

	if keep != "" {
		b.postCheck(w, r, input, keep, insts[0], first[0])
	}
	return r
}

// checkRep applies the per-rep checks and returns the rep's outcome.
func (b *bench) checkRep(w *workloadDef, res procResult, dir, run string) (*outcome, error) {
	if res.Err != nil {
		return nil, res.Err
	}
	if res.Leftover {
		return nil, fmt.Errorf("exited but left processes running in its group")
	}
	o, err := readOutcome(w, dir, run, res.Stdout)
	if err != nil {
		return nil, err
	}
	if w.HasBest {
		info, err := os.ReadFile(filepath.Join(dir, "RAxML_info."+run))
		if err != nil {
			return nil, err
		}
		m := performedRe.FindSubmatch(info)
		if m == nil || string(m[1]) != string(m[2]) {
			return nil, fmt.Errorf("RAxML_info does not show the scheduled bootstrap total performed")
		}
	}
	return o, nil
}

// evalTolerance bounds how far the likelihood of the reported best tree
// may sit from an independent -f e evaluation of that tree (which
// re-optimizes branch lengths and model from scratch, so it lands close
// to, not on, the search's final score).
const evalTolerance = 1e-2

// postCheck runs the untimed cross-checks on instance 0's outputs:
// the best tree, re-evaluated as a fixed topology, must score what the
// search said it scores; the grid run must reproduce its master-local
// (-grid 0) reference, which also yields the informational
// grid0_wall_s the README compares grid_tcp against.
func (b *bench) postCheck(w *workloadDef, r *result, input, dir string, inst instance, o *outcome) {
	seeds := []string{"-p", strconv.FormatInt(inst.P, 10), "-x", strconv.FormatInt(inst.X, 10)}
	if w.HasBest {
		r.Ops++
		tree := filepath.Join(dir, "RAxML_bestTree."+filepath.Base(dir))
		args := append([]string{"-s", input, "-n", "eval", "-w", dir, "-f", "e", "-t", tree, "-m", w.Model}, seeds...)
		res := runProc(w.Timeout, dir, b.raxml(), args...)
		m := finalLnLRe.FindSubmatch(res.Stdout)
		switch {
		case res.Err != nil:
			r.fail("evaluating the best tree: %v", res.Err)
		case m == nil:
			r.fail("evaluating the best tree: no final log-likelihood")
		default:
			got, _ := strconv.ParseFloat(string(m[1]), 64)
			want, _ := strconv.ParseFloat(o.LnL, 64)
			if math.Abs(got-want) > evalTolerance*math.Abs(want) {
				r.fail("best tree evaluates to %f, search reported %f", got, want)
			}
		}
	}
	if w.GridReference {
		r.Ops++
		args := append([]string{"-s", input, "-n", "grid0", "-w", dir, "-m", w.Model, "-grid", "0",
			"-starts", "0", "-N", gridN, "-grid-batch", gridN}, seeds...)
		res := runProc(w.Timeout, dir, b.raxml(), args...)
		if res.Err != nil {
			r.fail("-grid 0 reference: %v", res.Err)
			return
		}
		r.Extra["grid0_wall_s"] = res.Wall
		ref, err := readOutcome(w, dir, "grid0", res.Stdout)
		if err != nil {
			r.fail("-grid 0 reference: %v", err)
		} else if err := o.sameAs(ref); err != nil {
			r.fail("grid run vs -grid 0 reference: %v", err)
		}
	}
}
