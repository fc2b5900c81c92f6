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
// file holds the bytes. Written durably (writeDurable).
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

// queueFile is the queue image's name in DataDir.
const queueFile = "queue.json"

func (s *Server) queuePath() string { return filepath.Join(s.cfg.DataDir, queueFile) }

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
	return writeDurable(s.cfg.DataDir, map[string][]byte{queueFile: b})
}

// writeDurable replaces each file of dir named in files with its data
// whole: every file is written to a sibling temp file and synced, the
// temp files are renamed over their names, and the directory is synced,
// so after a crash each name holds its old content or its new one, and a
// returned nil means the new contents survive one. The whole batch is
// written before any of it is synced, so the file system can commit it
// together: a run's artifacts cost about one commit, not one per blob.
func writeDurable(dir string, files map[string][]byte) error {
	tmps := make(map[string]string, len(files))
	err := writeSynced(dir, files, tmps)
	for name, tmp := range tmps {
		if err == nil {
			err = os.Rename(tmp, filepath.Join(dir, name))
		}
		if err != nil {
			os.Remove(tmp)
		}
	}
	if err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSynced writes each file's data to a temp file beside it, then
// syncs and closes them all, recording every temp file it created in
// tmps (by name).
func writeSynced(dir string, files map[string][]byte, tmps map[string]string) error {
	var open []*os.File
	defer func() {
		for _, f := range open {
			f.Close()
		}
	}()
	for name, data := range files {
		f, err := os.OpenFile(filepath.Join(dir, name)+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		open = append(open, f)
		tmps[name] = f.Name()
		if _, err := f.Write(data); err != nil {
			return err
		}
	}
	for len(open) > 0 {
		err := open[0].Sync()
		if cerr := open[0].Close(); err == nil {
			err = cerr
		}
		open = open[1:]
		if err != nil {
			return err
		}
	}
	return nil
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
