// Package server is raxml-as-a-service: a long-running HTTP analysis
// service multiplexing many submissions over one persistent fine-grain
// worker fleet. Each accepted submission becomes a run — a grid
// workload (ML starts + rapid bootstraps + bootstop + consensus)
// scheduled over the shared grid.Fleet under per-tenant admission
// control — with streaming progress (SSE + poll), content-addressed
// artifacts, alignment-keyed warm caches, and graceful checkpointing
// drain on SIGTERM.
//
// See docs/server.md for the API surface, the admission-control model,
// cache keying, and drain semantics.
package server

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"raxml/internal/grid"
	"raxml/internal/msa"
)

// Config parameterizes a Server.
type Config struct {
	// Fleet is the shared worker fleet (required; may hold zero workers,
	// in which case every run computes master-local).
	Fleet *grid.Fleet
	// FleetTracer, when set, is the tracer the fleet was built over; the
	// server subscribes to it so fleet-level events (admissions, leases,
	// rank deaths) reach the affected runs' event streams.
	FleetTracer *grid.Tracer
	// DataDir roots the blob store and queue persistence (required).
	DataDir string
	// MaxRunning caps concurrently running runs server-wide (default 2).
	MaxRunning int
	// MaxRunningPerTenant caps one tenant's concurrent runs (default 1).
	MaxRunningPerTenant int
	// MaxQueuedPerTenant caps one tenant's queued runs (default 16).
	MaxQueuedPerTenant int
	// ThreadsPerRank is t of the R×t fine grain (default 1).
	ThreadsPerRank int
	// Supervisor, when set, is the worker-process supervisor behind a
	// tcp fleet; the server only reads its respawn counter for /v1/stats
	// (lifecycle stays with the CLI that built it).
	Supervisor *grid.Supervisor
}

func (c Config) withDefaults() Config {
	if c.MaxRunning < 1 {
		c.MaxRunning = 2
	}
	if c.MaxRunningPerTenant < 1 {
		c.MaxRunningPerTenant = 1
	}
	if c.MaxQueuedPerTenant < 1 {
		c.MaxQueuedPerTenant = 16
	}
	if c.ThreadsPerRank < 1 {
		c.ThreadsPerRank = 1
	}
	return c
}

// Server is the analysis service.
type Server struct {
	cfg     Config
	blobs   *BlobStore
	cache   *WarmCache
	metrics serverMetrics

	// activeRuns maps run ID -> *Run for runs currently executing —
	// the fleet-event routing table (sync.Map: the tracer sink reads it
	// without taking s.mu).
	activeRuns sync.Map

	// execute runs one run's analysis; tests substitute it.
	execute func(*Run) error

	persistMu     sync.Mutex // serializes persistQueue; taken before mu
	persistFailed bool       // the last queue image write failed; under persistMu

	mu           sync.Mutex
	runs         map[string]*Run
	order        []string
	tenants      map[string]*tenantQ
	tenantOrder  []string
	rrNext       int
	runningTotal int
	draining     bool
	wg           sync.WaitGroup
}

// New builds a server over a fleet, reloading any queue persisted by a
// previous process's drain from cfg.DataDir.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Fleet == nil {
		return nil, fmt.Errorf("server: Config.Fleet is required")
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: Config.DataDir is required")
	}
	blobs, err := NewBlobStore(blobDir(cfg.DataDir))
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		blobs:   blobs,
		cache:   NewWarmCache(),
		runs:    make(map[string]*Run),
		tenants: make(map[string]*tenantQ),
	}
	s.execute = s.executeRun
	if err := s.loadQueue(); err != nil {
		return nil, err
	}
	if cfg.FleetTracer != nil {
		cfg.FleetTracer.Subscribe(s.fleetSink())
	}
	s.publishExpvar()
	s.mu.Lock()
	s.scheduleLocked()
	s.mu.Unlock()
	return s, nil
}

// fleetSink routes fleet-level tracer events into run event streams:
// events tagged with a job under a run's namespace go to that run;
// untagged membership events (admit, rank-dead, kill) fan out to every
// active run — a tenant watching its stream sees the rank death that
// is about to trigger its restripe.
func (s *Server) fleetSink() grid.Sink {
	return func(rec map[string]any) {
		b, err := json.Marshal(rec)
		if err != nil {
			return
		}
		if job, _ := rec["job"].(string); job != "" {
			if i := strings.IndexByte(job, '/'); i > 0 {
				if v, ok := s.activeRuns.Load(job[:i]); ok {
					v.(*Run).eventLog().appendRaw(b)
					return
				}
			}
		}
		s.activeRuns.Range(func(_, v any) bool {
			v.(*Run).eventLog().appendRaw(b)
			return true
		})
	}
}

// Submission is the decoded submit request.
type Submission struct {
	// Alignment is the PHYLIP or FASTA text (required).
	Alignment []byte
	// Partition is the RAxML -q partition file ("" for unpartitioned).
	Partition []byte
	// Params are the analysis options.
	Params RunParams
	// Tenant is the API key.
	Tenant string
}

// Submit validates, dedups, and enqueues a submission. The returned
// bool reports whether the run was created now (false: the
// deterministic run ID matched an existing run — the idempotent-resubmit
// path, counted as a results-cache hit).
func (s *Server) Submit(sub Submission) (*Run, bool, error) {
	if len(sub.Alignment) == 0 {
		return nil, false, fmt.Errorf("server: empty alignment")
	}
	if _, err := msa.Sniff(sub.Alignment); err != nil {
		return nil, false, fmt.Errorf("server: bad alignment: %w", err)
	}
	if sub.Tenant == "" {
		sub.Tenant = "anonymous"
	}
	p := sub.Params.withDefaults()
	inputs := [][]byte{sub.Alignment}
	if len(sub.Partition) > 0 {
		inputs = append(inputs, sub.Partition)
	}
	hashes, err := s.blobs.Put(inputs...)
	if err != nil {
		return nil, false, err
	}
	alignHash, partHash := hashes[0], ""
	if len(hashes) > 1 {
		partHash = hashes[1]
	}
	id := DeriveRunID(alignHash, partHash, p)

	s.mu.Lock()
	if existing, ok := s.runs[id]; ok {
		st := existing.State()
		if st != StateFailed && st != StateCanceled {
			s.mu.Unlock()
			s.metrics.dedupHits.Add(1)
			return existing, false, s.repersistQueue()
		}
		// A failed or canceled run may be resubmitted: it re-enters the
		// queue as a fresh attempt under the same identity, reusing any
		// checkpoints a cancel left behind.
		existing.mu.Lock()
		existing.state = StateQueued
		existing.errMsg = ""
		existing.canceledByUser = false
		existing.finished = time.Time{}
		existing.log = newEventLog()
		existing.mu.Unlock()
		if err := s.enqueueLocked(existing); err != nil {
			existing.mu.Lock()
			existing.state = StateCanceled
			existing.mu.Unlock()
			s.mu.Unlock()
			return nil, false, err
		}
		s.scheduleLocked()
		s.mu.Unlock()
		return existing, true, s.persistQueue()
	}
	run := newRun(id, sub.Tenant, alignHash, partHash, p)
	if err := s.enqueueLocked(run); err != nil {
		s.mu.Unlock()
		return nil, false, err
	}
	s.runs[id] = run
	s.order = append(s.order, id)
	s.scheduleLocked()
	s.mu.Unlock()
	return run, true, s.persistQueue()
}

// Get looks a run up by ID.
func (s *Server) Get(id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.runs[id]
	return run, ok
}

// Drain is the graceful-shutdown path (SIGTERM): stop admitting, cancel
// running grids cooperatively — each running job checkpoints at its
// next replicate boundary and its leased ranks drain back through the
// release handshake — wait for them to unwind, then persist the queue
// (including the interrupted runs and their checkpoints) to DataDir.
// The fleet itself is left to the caller: in-proc fleets just vanish,
// spawned TCP fleets get Fleet.Shutdown from the serve loop.
func (s *Server) Drain() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	var grids []*grid.Grid
	for _, run := range s.runs {
		run.mu.Lock()
		if run.state == StateRunning && run.grid != nil {
			grids = append(grids, run.grid)
		}
		run.mu.Unlock()
	}
	s.mu.Unlock()
	for _, g := range grids {
		g.Cancel()
	}
	s.wg.Wait()
	return s.persistQueue()
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("POST /v1/runs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/runs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /v1/runs/{id}/trees/{kind}", s.handleTree)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// handleSubmit accepts multipart/form-data (files "alignment" and
// optional "partition", options as form fields) or a JSON document
// {"alignment": "...", "partition": "...", "model": ..., ...}.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sub, err := decodeSubmission(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	run, created, err := s.Submit(sub)
	switch {
	case err == nil:
	case err == ErrQueueFull:
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case err == ErrDraining:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, errPersist):
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	code := http.StatusAccepted
	if !created {
		w.Header().Set("X-Raxml-Dedup", "hit")
		code = http.StatusOK
	}
	writeJSON(w, code, run.status())
}

func decodeSubmission(r *http.Request) (Submission, error) {
	var sub Submission
	sub.Tenant = r.Header.Get("X-API-Key")
	ct := r.Header.Get("Content-Type")
	if len(ct) >= 19 && ct[:19] == "multipart/form-data" {
		if err := r.ParseMultipartForm(64 << 20); err != nil {
			return sub, fmt.Errorf("bad multipart form: %w", err)
		}
		read := func(field string) ([]byte, error) {
			f, _, err := r.FormFile(field)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return io.ReadAll(f)
		}
		align, err := read("alignment")
		if err != nil {
			return sub, fmt.Errorf("missing alignment file: %w", err)
		}
		sub.Alignment = align
		if part, err := read("partition"); err == nil {
			sub.Partition = part
		}
		formInt := func(field string, def int) int {
			if v := r.FormValue(field); v != "" {
				if n, err := strconv.Atoi(v); err == nil {
					return n
				}
			}
			return def
		}
		formInt64 := func(field string, def int64) int64 {
			if v := r.FormValue(field); v != "" {
				if n, err := strconv.ParseInt(v, 10, 64); err == nil {
					return n
				}
			}
			return def
		}
		sub.Params = RunParams{
			Model:         r.FormValue("model"),
			Starts:        formInt("starts", 1),
			Bootstraps:    formInt("bootstraps", 0),
			Batch:         formInt("batch", 0),
			Bootstop:      r.FormValue("bootstop") == "true",
			SeedParsimony: formInt64("seed_p", 0),
			SeedBootstrap: formInt64("seed_x", 0),
			FastSearch:    r.FormValue("fast_search") == "true",
		}
		return sub, nil
	}
	var doc struct {
		Alignment string    `json:"alignment"`
		Partition string    `json:"partition"`
		Params    RunParams `json:"params"`
	}
	doc.Params.Starts = 1
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&doc); err != nil {
		return sub, fmt.Errorf("bad JSON body: %w", err)
	}
	sub.Alignment = []byte(doc.Alignment)
	sub.Partition = []byte(doc.Partition)
	sub.Params = doc.Params
	return sub, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get("X-API-Key")
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	var out []map[string]any
	for _, id := range ids {
		if run, ok := s.Get(id); ok {
			if tenant != "" && run.Tenant != tenant {
				continue
			}
			out = append(out, run.status())
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	run, ok := s.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, run.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); errors.Is(err, errPersist) {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	} else if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	run, _ := s.Get(r.PathValue("id"))
	writeJSON(w, http.StatusOK, run.status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	run, ok := s.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	serveEvents(w, r, run.eventLog())
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	run, ok := s.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	hash, ok := run.artifact(r.PathValue("name"))
	if !ok {
		http.Error(w, "unknown artifact", http.StatusNotFound)
		return
	}
	data, err := s.blobs.Get(hash)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Raxml-Blob", hash)
	w.Write(data)
}

// handleTree maps the tree kinds of the lifecycle API onto artifacts:
// best (bestTree), annotated (bipartitions), bootstrap, consensus.
func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	name := map[string]string{
		"best":      "bestTree",
		"annotated": "bipartitions",
		"bootstrap": "bootstrap",
		"consensus": "consensus",
	}[r.PathValue("kind")]
	if name == "" {
		http.Error(w, "unknown tree kind (want best, annotated, bootstrap or consensus)", http.StatusNotFound)
		return
	}
	r.SetPathValue("name", name)
	s.handleArtifact(w, r)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func blobDir(dataDir string) string { return dataDir + string(os.PathSeparator) + "blobs" }
