package finegrain

import (
	"sync"
	"testing"

	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// dispatchLog is the order in which one master's job frames left and its
// local crew started: 's' when a Send of a job frame returns, 'r' when a
// local worker enters RunJob.
type dispatchLog struct {
	mu     sync.Mutex
	events []byte
}

func (l *dispatchLog) add(ev byte) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// take returns the events logged since the last take.
func (l *dispatchLog) take() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := string(l.events)
	l.events = l.events[:0]
	return s
}

// sendLogLink logs every job frame once its Send has returned.
type sendLogLink struct {
	linkShim
	log *dispatchLog
}

func (s *sendLogLink) Send(tag byte, payload []byte) error {
	err := s.Link.Send(tag, payload)
	if tag == TagJob {
		s.log.add('s')
	}
	return err
}

// runLogPool hands Post a runner that logs every local RunJob and is the
// engine in every other respect.
type runLogPool struct {
	*Pool
	log *dispatchLog
}

type wireRunner interface {
	likelihood.WireMaster
	threads.WorkEstimator
}

type runLogRunner struct {
	wireRunner
	log *dispatchLog
}

func (r *runLogRunner) RunJob(code threads.JobCode, worker int, rg threads.Range) {
	r.log.add('r')
	r.wireRunner.RunJob(code, worker, rg)
}

func (p *runLogPool) Post(runner threads.JobRunner, code threads.JobCode) {
	p.Pool.Post(&runLogRunner{runner.(wireRunner), p.log}, code)
}

// TestFrameLeavesBeforeLocalStripe is the order a dispatch has to keep
// for the two stripes to overlap: the job's one frame has been written to
// every rank — each Send has returned — before the local crew runs its
// first range, for a short descriptor and for a full traversal of at
// least 64 entries.
func TestFrameLeavesBeforeLocalStripe(t *testing.T) {
	const ranks = 3
	for _, tc := range []struct {
		name string
		taxa int
	}{
		{"single frame", 12},
		{"long descriptor", 70},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pat := makeData(t, tc.taxa, 900, 2, 37)
			topo := tree.Random(pat.Names, rng.New(38))
			log := &dispatchLog{}
			links := serveRanks(t, false, ranks-1)
			for i, l := range links {
				links[i] = &sendLogLink{linkShim{l}, log}
			}
			set := makeSet(t, pat, true)
			pool, err := NewPool(links, pat, set, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Release()
			eng, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: &runLogPool{pool, log}})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AttachTree(topo); err != nil {
				t.Fatal(err)
			}
			e := topo.Edges()[0]
			for name, job := range map[string]func(){
				"full traversal": func() { eng.InvalidateAll(); _ = eng.LogLikelihood() },
				"warm evaluate":  func() { _ = eng.EvaluateEdge(e.A, e.B) },
				"branch":         func() { eng.OptimizeBranch(e.A, e.B) },
			} {
				log.take()
				d0 := eng.DispatchCount()
				job()
				events, dispatches := log.take(), int(eng.DispatchCount()-d0)
				// Per dispatch: one send per remote rank, then a run of
				// local ranges. A send after a range within one dispatch
				// would show as more send runs than dispatches.
				sends, runs, sendRuns := 0, 0, 0
				for i := range events {
					if events[i] == 'r' {
						runs++
						continue
					}
					sends++
					if i == 0 || events[i-1] == 'r' {
						sendRuns++
					}
				}
				if dispatches == 0 || runs == 0 || sends != dispatches*(ranks-1) {
					t.Fatalf("%s: %d dispatches logged %d sends and %d local ranges (%q)", name, dispatches, sends, runs, events)
				}
				if events[0] != 's' || sendRuns != dispatches {
					t.Errorf("%s: a frame left after the local stripe had started: %d dispatches, %d runs of sends (%q)", name, dispatches, sendRuns, events)
				}
				if n := len(eng.LastTraversal()); name == "full traversal" && n < tc.taxa-2 {
					t.Errorf("%s: a %d-entry descriptor over %d taxa", name, n, tc.taxa)
				}
			}
		})
	}
}

// skewedWeights returns pat with the site weight piled on the head of
// the axis, the shape of the benchmark's wide input (sorted patterns: a
// few constant columns carry most of the sites, so a cut by weight gives
// the first of two ranks 16 of 790 patterns).
func skewedWeights(pat *msa.Patterns) *msa.Patterns {
	cp := *pat
	cp.Weights = make([]int, len(pat.Weights))
	for i := range cp.Weights {
		cp.Weights[i] = 1
	}
	for i := 0; i < 8 && i < len(cp.Weights); i++ {
		cp.Weights[i] = 40 * len(cp.Weights)
	}
	return &cp
}

// TestMasterCrewCutByPatterns: the master's own crew — a pool with no
// links, t = 2 — cuts its stripe by pattern count as the rank stripes are
// cut, so a head of the axis that carries most of the site weight leaves
// the two threads ranges within a stripe quantum of each other after the
// engine's snap. (A cut by weight gives the first thread a few patterns
// and the second the rest, and the crew never pays to publish a job.)
func TestMasterCrewCutByPatterns(t *testing.T) {
	pat := skewedWeights(makeData(t, 10, 2400, 1, 43))
	set := makeSet(t, pat, true)
	pool, err := NewPool(nil, pat, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Release()
	if _, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	rs := pool.local.Ranges()
	if len(rs) != 2 || rs[0].Lo != 0 || rs[1].Hi != pat.NumPatterns() {
		t.Fatalf("crew ranges %v over %d patterns", rs, pat.NumPatterns())
	}
	if d := rs[0].Len() - rs[1].Len(); d > likelihood.StripeQuantum || -d > likelihood.StripeQuantum {
		t.Errorf("crew ranges %v differ by %d patterns, more than a quantum", rs, d)
	}
}

// TestRankStripesBalancedByPatterns: rank stripes are cut by pattern
// count — the kernels' cost — however the site weight is spread, land on
// a stripe quantum or a partition start, and are never empty at the
// widest lease the grid grants (grid.leaseShare: patterns/32 − 1 workers).
func TestRankStripesBalancedByPatterns(t *testing.T) {
	for _, tc := range []struct {
		name  string
		genes int
	}{
		{"one partition", 1},
		{"three partitions", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pat := skewedWeights(makeData(t, 10, 2400, tc.genes, 43))
			n := pat.NumPatterns()
			starts := pat.PartStarts()
			leaseCap := n/(2*likelihood.StripeQuantum) - 1 // workers; the master is one more rank
			if leaseCap < 3 {
				t.Fatalf("%d patterns allow a lease of %d workers: the case is too small", n, leaseCap)
			}
			for _, ranks := range []int{2, 3, 4, leaseCap + 1} {
				err := Run(ranks, 1, pat, makeSet(t, pat, true), func(_ *likelihood.Engine, pool *Pool) error {
					stripes := pool.Stripes()
					widest, at := 0, 0
					for r, s := range stripes {
						if s.Len() == 0 {
							t.Fatalf("%d ranks: rank %d's stripe is empty", ranks, r)
						}
						if s.Lo != at {
							t.Fatalf("%d ranks: rank %d's stripe starts at %d, the previous one ended at %d", ranks, r, s.Lo, at)
						}
						at = s.Hi
						if s.Len() > widest {
							widest = s.Len()
						}
						if r == 0 {
							continue
						}
						seg, onStart := 0, false
						for _, st := range starts {
							if st <= s.Lo {
								seg = st
							}
							onStart = onStart || st == s.Lo
						}
						if !onStart && (s.Lo-seg)%likelihood.StripeQuantum != 0 {
							t.Errorf("%d ranks: rank %d's stripe starts at %d, neither a partition start nor a quantum from %d", ranks, r, s.Lo, seg)
						}
					}
					if at != n {
						t.Fatalf("%d ranks: stripes end at %d of %d patterns", ranks, at, n)
					}
					// Snapping moves a boundary by at most half a quantum, so
					// the bound is checked where a stripe is long enough for
					// that to be under 10% of it.
					if mean := float64(n) / float64(ranks); mean >= 10*likelihood.StripeQuantum && float64(widest) > 1.1*mean {
						t.Errorf("%d ranks over %d patterns: widest stripe %d is %.2f of the mean", ranks, n, widest, float64(widest)/mean)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%d ranks: %v", ranks, err)
				}
			}
		})
	}
}
