package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// persistedQueue is the on-disk queue image (DataDir/queue.json): every
// queued run — including runs a drain interrupted mid-analysis, with
// their replicate-boundary checkpoints — survives the process. Inputs
// are referenced by blob hash, not inlined; the blob store next to the
// file holds the bytes. Written atomically (tmp + rename).
type persistedQueue struct {
	Version int            `json:"version"`
	Runs    []persistedRun `json:"runs"`
}

type persistedRun struct {
	ID          string            `json:"id"`
	Tenant      string            `json:"tenant"`
	AlignHash   string            `json:"align_sha256"`
	PartHash    string            `json:"part_sha256,omitempty"`
	Params      RunParams         `json:"params"`
	Submitted   time.Time         `json:"submitted_at"`
	Checkpoints map[string][]byte `json:"checkpoints,omitempty"`
}

func (s *Server) queuePath() string { return filepath.Join(s.cfg.DataDir, "queue.json") }

// errPersist marks an error of writing the queue image: the request was
// applied in memory, but a restart would not see it.
var errPersist = errors.New("server: persisting the queue")

// persistQueue snapshots every queued run to disk. Safe to call from
// any goroutine not holding s.mu. persistMu is held from the snapshot
// through the rename, so concurrent calls share the one tmp path in
// turn and the last snapshot taken is the last one renamed into place.
func (s *Server) persistQueue() error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	return s.persistLocked()
}

// repersistQueue writes the queue image again if the last write failed,
// so an idempotent resubmit acknowledges only a run a restart will see.
func (s *Server) repersistQueue() error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if !s.persistFailed {
		return nil
	}
	return s.persistLocked()
}

func (s *Server) persistLocked() error {
	err := s.writeQueue()
	s.persistFailed = err != nil
	if err != nil {
		return fmt.Errorf("%w: %w", errPersist, err)
	}
	return nil
}

func (s *Server) writeQueue() error {
	s.mu.Lock()
	var pq persistedQueue
	pq.Version = 1
	for _, key := range s.tenantOrder {
		for _, run := range s.tenants[key].queue {
			run.mu.Lock()
			pq.Runs = append(pq.Runs, persistedRun{
				ID:          run.ID,
				Tenant:      run.Tenant,
				AlignHash:   run.AlignHash,
				PartHash:    run.PartHash,
				Params:      run.Params,
				Submitted:   run.submitted,
				Checkpoints: run.checkpoints,
			})
			run.mu.Unlock()
		}
	}
	s.mu.Unlock()

	b, err := json.MarshalIndent(&pq, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return err
	}
	tmp := s.queuePath() + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.queuePath())
}

// loadQueue re-admits a previous process's persisted queue (called from
// New, before the server is reachable). Runs whose input blobs vanished
// are dropped with a failed record rather than wedging the queue.
func (s *Server) loadQueue() error {
	b, err := os.ReadFile(s.queuePath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var pq persistedQueue
	if err := json.Unmarshal(b, &pq); err != nil {
		return fmt.Errorf("server: corrupt queue file %s: %w", s.queuePath(), err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pr := range pq.Runs {
		run := newRun(pr.ID, pr.Tenant, pr.AlignHash, pr.PartHash, pr.Params)
		if !pr.Submitted.IsZero() {
			run.submitted = pr.Submitted
		}
		run.checkpoints = pr.Checkpoints
		if !s.blobs.Has(pr.AlignHash) || (pr.PartHash != "" && !s.blobs.Has(pr.PartHash)) {
			run.state = StateFailed
			run.errMsg = "input blobs missing after restart"
			run.log.close()
		} else if err := s.enqueueLocked(run); err != nil {
			run.state = StateFailed
			run.errMsg = err.Error()
			run.log.close()
		} else if len(pr.Checkpoints) > 0 {
			run.log.event("resumed", map[string]any{
				"run": run.ID, "checkpoints": len(pr.Checkpoints),
			})
		}
		s.runs[run.ID] = run
		s.order = append(s.order, run.ID)
	}
	return nil
}
